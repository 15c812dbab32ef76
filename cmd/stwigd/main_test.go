package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"stwig/internal/server"
)

// envOf is a parseFlags environment backed by a map.
func envOf(env map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := env[k]
		return v, ok
	}
}

// TestMaxTimeoutPrecedence pins flag > env > derived default for
// -max-timeout. The derived default is server.Config's own "4× the default
// timeout" rule: the flag must not shadow it with a fixed 2m, which made
// `stwigd -timeout 3m` fail validation (MaxTimeout 2m0s < DefaultTimeout
// 3m0s).
func TestMaxTimeoutPrecedence(t *testing.T) {
	cases := []struct {
		name string
		args []string
		env  map[string]string
		// want is what parseFlags hands server.Config; 0 leaves the cap to
		// Config's derivation.
		want time.Duration
	}{
		{"defaults", nil, nil, 0},
		{"derived from -timeout", []string{"-timeout", "3m"}, nil, 0},
		{"derived from STWIGD_TIMEOUT", nil, map[string]string{"STWIGD_TIMEOUT": "3m"}, 0},
		{"env sets it", []string{"-timeout", "3m"}, map[string]string{"STWIGD_MAX_TIMEOUT": "5m"}, 5 * time.Minute},
		{"flag beats env", []string{"-max-timeout", "7m"}, map[string]string{"STWIGD_MAX_TIMEOUT": "5m"}, 7 * time.Minute},
		{"explicit 0 re-derives", []string{"-timeout", "3m", "-max-timeout", "0"}, map[string]string{"STWIGD_MAX_TIMEOUT": "5m"}, 0},
	}
	for _, tc := range cases {
		cfg, _, err := parseFlags(tc.args, envOf(tc.env))
		if err != nil {
			t.Fatalf("%s: parseFlags: %v", tc.name, err)
		}
		if cfg.srv.MaxTimeout != tc.want {
			t.Errorf("%s: Config.MaxTimeout = %v, want %v", tc.name, cfg.srv.MaxTimeout, tc.want)
		}
		if err := cfg.srv.Validate(); err != nil {
			t.Errorf("%s: config does not validate: %v", tc.name, err)
		}
	}

	// An explicit cap below the default deadline is still refused.
	cfg, _, err := parseFlags([]string{"-timeout", "3m", "-max-timeout", "1m"}, envOf(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.srv.Validate(); err == nil {
		t.Error("-max-timeout 1m below -timeout 3m validated")
	}
}

// TestBodyAndRetryBounds: a negative request-body bound used to boot a daemon
// that answered every POST with 400 (http.MaxBytesReader clamps it to 0), and
// a negative retry hint one that dropped Retry-After from every 429/503.
// Both now have the flag every setting has, and a bound.
func TestBodyAndRetryBounds(t *testing.T) {
	for _, tc := range []struct {
		args []string
		env  map[string]string
	}{
		{env: map[string]string{"STWIGD_MAX_REQUEST_BYTES": "-1"}},
		{env: map[string]string{"STWIGD_RETRY_AFTER": "-1s"}},
		{args: []string{"-max-request-bytes", "-1"}},
		{args: []string{"-retry-after", "-1s"}},
	} {
		cfg, _, err := parseFlags(tc.args, envOf(tc.env))
		if err != nil {
			t.Fatalf("%v %v: parseFlags: %v", tc.args, tc.env, err)
		}
		if err := cfg.srv.Validate(); err == nil {
			t.Errorf("%v %v validated; want a bound violation", tc.args, tc.env)
		}
	}
	cfg, _, err := parseFlags([]string{"-max-request-bytes", "2097152"}, envOf(map[string]string{"STWIGD_RETRY_AFTER": "2s"}))
	if err != nil || cfg.srv.MaxRequestBytes != 2<<20 || cfg.srv.RetryAfter != 2*time.Second || cfg.srv.Validate() != nil {
		t.Errorf("valid body bound and retry hint: %+v, %v", cfg.srv, err)
	}
}

// TestShardIDAndFsyncSpellings pins the two settings whose flag is not the
// field read plainly: zero is a real shard id, so "unset" is -1 (coordinator);
// and -journal-fsync is the negation of Config.JournalNoSync.
func TestShardIDAndFsyncSpellings(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		env        map[string]string
		wantShard  int
		wantNoSync bool
	}{
		{wantShard: -1},
		{env: map[string]string{"STWIGD_SHARD_ID": "0", "STWIGD_JOURNAL_FSYNC": "false"}, wantShard: 0, wantNoSync: true},
		{args: []string{"-shard-id", "1", "-journal-fsync"}, env: map[string]string{"STWIGD_SHARD_ID": "0", "STWIGD_JOURNAL_FSYNC": "false"}, wantShard: 1},
		{args: []string{"-journal-fsync=false"}, wantShard: -1, wantNoSync: true},
	} {
		cfg, _, err := parseFlags(tc.args, envOf(tc.env))
		if err != nil || cfg.srv.ShardID != tc.wantShard || cfg.srv.JournalNoSync != tc.wantNoSync {
			t.Errorf("%v %v: ShardID %d JournalNoSync %v, %v; want %d %v", tc.args, tc.env,
				cfg.srv.ShardID, cfg.srv.JournalNoSync, err, tc.wantShard, tc.wantNoSync)
		}
	}
}

// TestBootSpecs pins the boot flag surface → namespace spec mapping.
func TestBootSpecs(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		recovered int
		want      []server.NamespaceSpec
		wantErr   string
	}{
		{
			name: "rmat default namespace",
			args: []string{"-rmat-scale", "8", "-rmat-degree", "4", "-rmat-labels", "3", "-rmat-seed", "9", "-machines", "2", "-relabel", "degree"},
			want: []server.NamespaceSpec{{Name: server.DefaultNamespace, Source: "rmat", Scale: 8, Degree: 4, Labels: 3, Seed: 9, Machines: 2, Relabel: "degree"}},
		},
		{
			name: "binary graph file",
			args: []string{"-graph", "/data/g.bin"},
			want: []server.NamespaceSpec{{Name: server.DefaultNamespace, Source: "file", Path: "/data/g.bin", Machines: 8}},
		},
		{
			name: "text graph file",
			args: []string{"-graph", "/data/g.txt", "-text"},
			want: []server.NamespaceSpec{{Name: server.DefaultNamespace, Source: "text", Path: "/data/g.txt", Machines: 8}},
		},
		{
			name: "default plus -ns tenant",
			args: []string{"-rmat-scale", "6", "-ns", "t=rmat:scale=5,labels=2"},
			want: []server.NamespaceSpec{
				{Name: server.DefaultNamespace, Source: "rmat", Scale: 6, Degree: 8, Labels: 16, Seed: 1, Machines: 8},
				mustParseNS(t, "t=rmat:scale=5,labels=2"),
			},
		},
		{
			name: "pure -ns deployment",
			args: []string{"-ns", "a=rmat:scale=5", "-ns", "b=file:/data/b.bin,machines=4"},
			want: []server.NamespaceSpec{mustParseNS(t, "a=rmat:scale=5"), mustParseNS(t, "b=file:/data/b.bin,machines=4")},
		},
		{name: "recovered tenants need no flags", recovered: 1},
		{name: "nothing to serve", wantErr: "set -graph FILE"},
		{name: "both sources", args: []string{"-graph", "g.bin", "-rmat-scale", "8"}, wantErr: "only one of -graph and -rmat-scale"},
		{name: "unknown relabel mode", args: []string{"-rmat-scale", "8", "-relabel", "pagerank"}, wantErr: "unknown -relabel mode"},
		{name: "default-shaping flag without a default", args: []string{"-ns", "a=rmat:scale=5", "-machines", "4"}, wantErr: "-machines shapes the default namespace"},
		{name: "bad -ns spec", args: []string{"-ns", "no-equals-sign"}, wantErr: "no-equals-sign"},
	}
	for _, tc := range cases {
		cfg, _, err := parseFlags(tc.args, envOf(nil))
		if err != nil {
			t.Fatalf("%s: parseFlags: %v", tc.name, err)
		}
		got, err := bootSpecs(cfg, tc.recovered)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d specs %+v, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: spec %d =\n %+v, want\n %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func mustParseNS(t *testing.T, flag string) server.NamespaceSpec {
	t.Helper()
	spec, err := server.ParseNamespaceFlag(flag)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// retiredFlagArgs, set in the environment, makes the test binary parse it
// (space-separated) as stwigd's command line and exit: the child side of
// TestRetiredFlagsAreUndefined.
const retiredFlagArgs = "STWIGD_TEST_PARSE_ARGS"

// TestRetiredFlagsAreUndefined: a flag whose setting is gone makes stwigd
// exit non-zero as an undefined flag, rather than be accepted and ignored.
// -checkpoint-every went when the journal's size became the checkpoint
// cadence; the group-commit and fairness flags when the writer window
// took their place; -plan-cache with the plan cache.
func TestRetiredFlagsAreUndefined(t *testing.T) {
	if args := os.Getenv(retiredFlagArgs); args != "" {
		parseFlags(strings.Fields(args), envOf(nil))
		os.Exit(0)
	}
	for _, args := range []string{
		"-checkpoint-every 256",
		"-group-commit-window 1ms",
		"-group-commit-batches 4",
		"-update-fairness-window 40ms",
		"-plan-cache 1",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRetiredFlagsAreUndefined$")
		cmd.Env = append(os.Environ(), retiredFlagArgs+"="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		flagName := strings.Fields(args)[0]
		if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(string(out), "flag provided but not defined: "+flagName) {
			t.Errorf("stwigd %s: err %v, output %q; want a non-zero exit naming the undefined flag", args, err, out)
		}
	}
}
