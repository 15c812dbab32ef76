package server

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"stwig/internal/journal"
)

// bindConfig binds a fresh Config's settings to a fresh flag set under env
// and parses args, the way cmd/stwigd does.
func bindConfig(args []string, env map[string]string) (*Config, *flag.FlagSet, error) {
	cfg := new(Config)
	fs := flag.NewFlagSet("stwigd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := cfg.BindFlags(fs, lookupMap(env)); err != nil {
		return cfg, fs, err
	}
	return cfg, fs, fs.Parse(args)
}

// samples returns two distinct valid non-default spellings for a setting of
// b's type and one invalid one ("" when every string is valid).
func samples(b bound) (a, other, garbage string) {
	switch b.f.Interface().(type) {
	case bool:
		return "false", "true", "yes please"
	case string:
		return "x7", "x9", ""
	case time.Duration:
		return "7s", "9s", "30" // a bare number is not a duration
	}
	return "7", "9", "4.5"
}

// TestSettingsTable checks, for every row of Config's settings table, each
// thing derived from it: the flag, the environment variable, their
// precedence, the refusal of garbage, and the -help default and env note.
func TestSettingsTable(t *testing.T) {
	if len(configTable) != 19 || len(specTable) != 9 {
		t.Fatalf("%d settings and %d spec keys, want 19 and 9", len(configTable), len(specTable))
	}
	// The variables operators already have in their unit files.
	wantEnv := strings.Fields(`STWIGD_MAX_INFLIGHT STWIGD_TIMEOUT STWIGD_MAX_TIMEOUT STWIGD_MAX_MATCHES
		STWIGD_MAX_BYTES STWIGD_MAX_REQUEST_BYTES STWIGD_RETRY_AFTER STWIGD_UPDATE_LOCK_WAIT
		STWIGD_UPDATE_QUEUE_DEPTH STWIGD_UPDATE_BATCH_MAX STWIGD_NS_ROOT STWIGD_DATA_DIR
		STWIGD_JOURNAL_FSYNC STWIGD_JOURNAL_ALIGN STWIGD_FOLLOW STWIGD_SHARD_MAP
		STWIGD_SHARD_ID STWIGD_ADMIN_TOKEN STWIGD_SLOW_QUERY`)
	var gotEnv []string
	for i := range configTable {
		gotEnv = append(gotEnv, configTable[i].env())
	}
	if !slices.Equal(gotEnv, wantEnv) {
		t.Fatalf("derived environment variables\n %v, want\n %v", gotEnv, wantEnv)
	}

	zero, norm := Config{}, Config{}.normalize()
	if norm.JournalAlign != journal.DefaultAlign {
		t.Errorf("JournalAlign defaults to %d, the journal's own default is %d", norm.JournalAlign, journal.DefaultAlign)
	}
	var derived []string
	for i, s := range configTable {
		field := func(cfg *Config) string { return bind(configTable, cfg)[i].String() }
		a, other, garbage := samples(bind(configTable, &zero)[i])
		flagA, flagOther := "-"+s.flag+"="+a, "-"+s.flag+"="+other

		_, fs, err := bindConfig(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := fs.Lookup(s.flag)
		if f == nil {
			t.Fatalf("%s: no -%s flag", s.name, s.flag)
		}
		if !strings.Contains(f.Usage, s.env()) {
			t.Errorf("-%s: usage %q does not name %s", s.flag, f.Usage, s.env())
		}
		// The -help default is what the zero Config normalizes to — except
		// where the table says otherwise: an unset value, or no default at
		// all, which leaves 0 for a derivation rule to act on.
		wantDef := field(&norm)
		switch {
		case s.unset != "":
			wantDef = s.unset
		case s.def == "":
			wantDef = field(&zero)
			if field(&norm) != wantDef {
				derived = append(derived, s.flag)
			}
		}
		if f.DefValue != wantDef {
			t.Errorf("-%s: -help default %q, want %q", s.flag, f.DefValue, wantDef)
		}

		if cfg, _, err := bindConfig([]string{flagA}, nil); err != nil || field(cfg) != a {
			t.Errorf("%s: %s = %q, %v", flagA, s.name, field(cfg), err)
		}
		cfg, fs, err := bindConfig(nil, map[string]string{s.env(): a})
		if err != nil || field(cfg) != a || fs.Lookup(s.flag).DefValue != a {
			t.Errorf("%s=%s: %s = %q, -help default %q, %v", s.env(), a, s.name, field(cfg), fs.Lookup(s.flag).DefValue, err)
		}
		if cfg, _, err := bindConfig([]string{flagOther}, map[string]string{s.env(): a}); err != nil || field(cfg) != other {
			t.Errorf("%s over %s=%s: %s = %q, %v", flagOther, s.env(), a, s.name, field(cfg), err)
		}
		if garbage == "" {
			continue
		}
		if _, _, err := bindConfig(nil, map[string]string{s.env(): garbage}); err == nil || !strings.Contains(err.Error(), s.env()) {
			t.Errorf("%s=%q: err = %v, want one naming the variable", s.env(), garbage, err)
		}
		if _, _, err := bindConfig([]string{"-" + s.flag + "=" + garbage}, nil); err == nil {
			t.Errorf("-%s=%q accepted", s.flag, garbage)
		}
	}
	if want := []string{"max-timeout"}; !slices.Equal(derived, want) {
		t.Errorf("settings whose default derives from another: %v, want %v", derived, want)
	}

	// The default-namespace flags come off the spec table the same way, with
	// the spec grammar's defaults and no environment variable.
	parsed, err := ParseNamespaceSpec("t", "file:/g.bin")
	if err != nil {
		t.Fatal(err)
	}
	var spec NamespaceSpec
	fs := flag.NewFlagSet("stwigd", flag.ContinueOnError)
	names := spec.BindFlags(fs)
	if want := strings.Fields("rmat-scale rmat-degree rmat-labels rmat-seed relabel machines"); !slices.Equal(names, want) {
		t.Fatalf("default-namespace flags %v, want %v", names, want)
	}
	for i, s := range specTable {
		if s.flag == "" {
			continue
		}
		f := fs.Lookup(s.flag)
		if want := bind(specTable, &parsed)[i].String(); f.DefValue != want {
			t.Errorf("-%s: default %q, the spec grammar's is %q", s.flag, f.DefValue, want)
		}
		if !strings.Contains(f.Usage, "spec key "+s.spec) || strings.Contains(f.Usage, "STWIGD_") {
			t.Errorf("-%s: usage %q must name spec key %s and no environment variable", s.flag, f.Usage, s.spec)
		}
		a, _, _ := samples(bind(specTable, &spec)[i])
		if err := fs.Parse([]string{"-" + s.flag, a}); err != nil || bind(specTable, &spec)[i].String() != a {
			t.Errorf("-%s %s: %s = %v, %v", s.flag, a, s.name, bind(specTable, &spec)[i], err)
		}
	}
}

// settingsReference renders the README's "Settings reference" block from the
// two tables.
func settingsReference() string {
	cell := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	var b strings.Builder
	_, fs, _ := bindConfig(nil, nil)
	b.WriteString("| Flag | Environment variable | Default | Meaning |\n| --- | --- | --- | --- |\n")
	for i := range configTable {
		s := &configTable[i]
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s | %s |\n", s.flag, s.env(), cell(fs.Lookup(s.flag).DefValue), s.help)
	}
	b.WriteString("\n| Spec key | Default-namespace flag | Default | Meaning |\n| --- | --- | --- | --- |\n")
	for _, s := range specTable {
		flagName, help := s.flag, s.help
		if flagName != "" {
			flagName = "-" + flagName
		}
		if s.only != "" {
			help += " (" + s.only + " sources only)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", s.spec, cell(flagName), cell(s.def), help)
	}
	return b.String()
}

// TestREADMESettingsReference keeps the README's settings tables equal to
// what the struct tags render; on a mismatch it prints the block to paste.
func TestREADMESettingsReference(t *testing.T) {
	const begin, end = "<!-- settings:begin -->\n", "<!-- settings:end -->"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if want := settingsReference(); !ok || !ok2 || got != want {
		t.Errorf("README.md's block between %q and %q is out of date; it should read:\n%s", strings.TrimSpace(begin), end, want)
	}
}
