package server

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// A setting is one row of a settings table: a tagged field of Config or
// NamespaceSpec. The tags are the only place a setting is spelled or
// bounded; normalize, Validate, FromEnv, BindFlags, ParseNamespaceSpec,
// SpecString and the README's settings reference are loops over the rows.
//
//	flag:"max-inflight"  command-line flag; "!" first binds a bool field to the flag's negation
//	spec:"inflight"      namespace-spec option key
//	def:"16"             what zero stands for: normalize and the spec parser substitute it, flags default to it
//	unset:"-1"           flag/env default of a field whose zero is a real value; normalize leaves it alone
//	min:"1"              smallest valid value, an integer
//	in:"degree"          the one value a string option accepts
//	only:"rmat"          the one source kind a spec key applies to
//	help:"..."           one-line meaning: the flag usage and the README row
type setting struct {
	index  int    // field index in the struct
	name   string // Go field name, for Validate's messages
	negate bool

	flag, spec, def, unset, min, in, only, help string
}

// tableOf reads the settings table off a struct type's tags.
func tableOf(zero any) []setting {
	t := reflect.TypeOf(zero)
	var rows []setting
	for i := range t.NumField() {
		sf := t.Field(i)
		tag := sf.Tag.Get
		s := setting{index: i, name: sf.Name, flag: tag("flag"), spec: tag("spec"), def: tag("def"),
			unset: tag("unset"), min: tag("min"), in: tag("in"), only: tag("only"), help: tag("help")}
		if s.flag == "" && s.spec == "" {
			continue
		}
		s.flag, s.negate = strings.CutPrefix(s.flag, "!")
		rows = append(rows, s)
	}
	return rows
}

// env is the environment variable a Config setting reads: its flag name
// upper-snake-cased behind the prefix (-max-inflight ↔ STWIGD_MAX_INFLIGHT).
func (s *setting) env() string {
	return "STWIGD_" + strings.ToUpper(strings.ReplaceAll(s.flag, "-", "_"))
}

// A bound is one setting's field inside one struct value. Its Set is the
// only string→field parser: environment variables, flags (a bound is a
// flag.Value) and spec options all go through it.
type bound struct {
	*setting
	f reflect.Value
}

func bind(rows []setting, ptr any) []bound {
	v := reflect.ValueOf(ptr).Elem()
	out := make([]bound, len(rows))
	for i := range rows {
		out[i] = bound{&rows[i], v.Field(rows[i].index)}
	}
	return out
}

func (b bound) Set(s string) error {
	switch b.f.Interface().(type) {
	case time.Duration:
		d, err := time.ParseDuration(s)
		if err != nil {
			return errors.New("not a duration (want e.g. 30s)")
		}
		b.f.SetInt(int64(d))
	case int, int64:
		n, err := strconv.ParseInt(s, 10, b.f.Type().Bits())
		if err != nil {
			return errors.New("not an integer")
		}
		b.f.SetInt(n)
	case bool:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return errors.New("not a boolean")
		}
		b.f.SetBool(v != b.negate)
	default:
		b.f.SetString(s)
	}
	return nil
}

// mustSet sets the field from a literal of the table itself; one that does
// not parse as the field's type is a bug in the table.
func (b bound) mustSet(lit string) {
	if err := b.Set(lit); err != nil {
		panic(fmt.Sprintf("server: setting %s: tag literal %q: %v", b.name, lit, err))
	}
}

func (b bound) String() string {
	switch {
	case !b.f.IsValid(): // the flag package probes a zero Value for -help
		return ""
	case b.f.Kind() == reflect.Bool:
		return strconv.FormatBool(b.f.Bool() != b.negate)
	}
	return fmt.Sprint(b.f.Interface())
}

func (b bound) IsBoolFlag() bool { return b.f.Kind() == reflect.Bool }

// check enforces the row's min and in bounds on the field's current value.
func (b bound) check() error {
	if b.min != "" {
		if lo, err := strconv.ParseInt(b.min, 10, 64); err != nil || b.f.Int() < lo {
			return fmt.Errorf("%v < %s", b, b.min)
		}
	}
	if b.in != "" && b.f.String() != b.in {
		return fmt.Errorf("only %q is supported", b.in)
	}
	return nil
}

// applyDefaults gives every zero field its def value and, when seeding a
// flag set, its unset value.
func applyDefaults(rows []setting, ptr any, seed bool) {
	for _, b := range bind(rows, ptr) {
		lit := b.def
		if lit == "" && seed {
			lit = b.unset
		}
		if lit != "" && b.f.IsZero() {
			b.mustSet(lit)
		}
	}
}

// bindFlags registers each flag-bearing row over the struct at ptr, the
// field's current value being the flag default, and returns the flag names.
func bindFlags(fs *flag.FlagSet, rows []setting, ptr any, env bool) []string {
	var names []string
	for _, b := range bind(rows, ptr) {
		if b.flag == "" {
			continue
		}
		note := strings.ToLower(b.f.Type().Name())
		if !b.IsBoolFlag() {
			note = "`" + note + "`" // the flag package's placeholder syntax
		}
		if env {
			note += ", env " + b.env()
		}
		if b.spec != "" {
			note += ", -ns spec key " + b.spec
		}
		fs.Var(b, b.flag, b.help+" ["+note+"]")
		names = append(names, b.flag)
	}
	return names
}
