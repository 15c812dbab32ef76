package server

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// lookupMap adapts a map to Config.FromEnv's lookup signature.
func lookupMap(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func TestConfigFromEnv(t *testing.T) {
	cfg, err := Config{}.FromEnv(lookupMap(map[string]string{
		"STWIGD_MAX_INFLIGHT":           "32",
		"STWIGD_TIMEOUT":                "45s",
		"STWIGD_MAX_TIMEOUT":            "3m",
		"STWIGD_MAX_MATCHES":            "1000",
		"STWIGD_MAX_BYTES":              "1048576",
		"STWIGD_MAX_REQUEST_BYTES":      "2097152",
		"STWIGD_RETRY_AFTER":            "2s",
		"STWIGD_UPDATE_LOCK_WAIT":       "250ms",
		"STWIGD_UPDATE_QUEUE_DEPTH":     "7",
		"STWIGD_UPDATE_BATCH_MAX":       "9",
		"STWIGD_UPDATE_FAIRNESS_WINDOW": "40ms",
		"STWIGD_NS_ROOT":                "/srv/graphs",
		"STWIGD_ADMIN_TOKEN":            "hunter2",
		"STWIGD_DATA_DIR":               "/srv/stwig-data",
		"STWIGD_JOURNAL_FSYNC":          "false",
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		MaxInFlight:      32,
		DefaultTimeout:   45 * time.Second,
		MaxTimeout:       3 * time.Minute,
		MaxMatches:       1000,
		MaxBytes:         1 << 20,
		MaxRequestBytes:  2 << 20,
		RetryAfter:       2 * time.Second,
		UpdateLockWait:   250 * time.Millisecond,
		UpdateQueueDepth: 7,
		UpdateBatchMax:   9,
		NamespaceRoot:    "/srv/graphs",
		AdminToken:       "hunter2",
		DataDir:          "/srv/stwig-data",
		JournalNoSync:    true,
	}
	if cfg != want {
		t.Fatalf("FromEnv = %+v, want %+v", cfg, want)
	}

	// Unset variables leave the base untouched.
	base := Config{MaxInFlight: 7, DefaultTimeout: time.Second}
	got, err := base.FromEnv(lookupMap(map[string]string{"STWIGD_MAX_MATCHES": "5"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxInFlight != 7 || got.DefaultTimeout != time.Second || got.MaxMatches != 5 {
		t.Fatalf("partial overlay = %+v", got)
	}

	// A set-but-garbage variable must error, not silently default.
	for _, env := range []map[string]string{
		{"STWIGD_MAX_INFLIGHT": "many"},
		{"STWIGD_TIMEOUT": "30"},    // bare number is not a duration
		{"STWIGD_MAX_BYTES": "1MB"}, // no unit suffixes on byte counts
		{"STWIGD_UPDATE_LOCK_WAIT": "x"},
		{"STWIGD_UPDATE_QUEUE_DEPTH": "deep"},
		{"STWIGD_UPDATE_BATCH_MAX": "4.5"},
		{"STWIGD_JOURNAL_FSYNC": "yes please"},
	} {
		if _, err := (Config{}).FromEnv(lookupMap(env)); err == nil {
			t.Fatalf("FromEnv(%v) accepted garbage", env)
		}
	}
}

// TestConfigValidateUpdatePipeline pins the update knobs' validation: the
// zero value normalizes to sane defaults, negatives are refused, and the
// reader grace period derived from the writer's patience always matures
// before that patience runs out — a cutoff that could never fire would
// silently reintroduce writer starvation.
func TestConfigValidateUpdatePipeline(t *testing.T) {
	norm := Config{}.normalize()
	if norm.UpdateQueueDepth != 64 || norm.UpdateBatchMax != 256 || readerGrace(norm.UpdateLockWait) != 100*time.Millisecond {
		t.Fatalf("normalized update defaults = depth %d, batch %d, grace %v",
			norm.UpdateQueueDepth, norm.UpdateBatchMax, readerGrace(norm.UpdateLockWait))
	}
	// Short writer patience pulls the grace period below it instead of
	// leaving a cutoff that can never mature.
	if got := readerGrace(50 * time.Millisecond); got != 25*time.Millisecond {
		t.Fatalf("grace period under 50ms patience = %v, want 25ms", got)
	}
	if err := (Config{UpdateLockWait: 50 * time.Millisecond}).Validate(); err != nil {
		t.Fatalf("short-patience config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	for _, bad := range []Config{
		{UpdateQueueDepth: -1},
		{UpdateBatchMax: -2},
		{UpdateLockWait: -time.Second},
		{MaxRequestBytes: -1},      // http.MaxBytesReader clamps it to 0: every body would 400
		{RetryAfter: -time.Second}, // would strip Retry-After from every 429/503
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}

func TestValidateNamespaceName(t *testing.T) {
	for _, name := range []string{"default", "tenant2", "A-b_9", strings.Repeat("x", 64)} {
		if err := ValidateNamespaceName(name); err != nil {
			t.Errorf("ValidateNamespaceName(%q) = %v, want ok", name, err)
		}
	}
	for _, name := range []string{"", "a/b", "a b", "a=b", "a,b", "a:b", "ns.1", "naïve", strings.Repeat("x", 65)} {
		if err := ValidateNamespaceName(name); err == nil {
			t.Errorf("ValidateNamespaceName(%q) accepted an invalid name", name)
		}
	}
}

func TestParseNamespaceSpec(t *testing.T) {
	spec, err := ParseNamespaceSpec("t1", "rmat:scale=12,degree=6,labels=4,seed=9,machines=2,inflight=3,maxmatches=100,maxbytes=4096,relabel=degree")
	if err != nil {
		t.Fatal(err)
	}
	want := NamespaceSpec{
		Name: "t1", Source: "rmat",
		Scale: 12, Degree: 6, Labels: 4, Seed: 9,
		Relabel: "degree", Machines: 2,
		MaxInFlight: 3, MaxMatches: 100, MaxBytes: 4096,
	}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}

	// rmat defaults mirror stwigd's flags: degree 8, labels 16, seed 1,
	// machines 8.
	spec, err = ParseNamespaceSpec("t2", "rmat:scale=10")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Degree != 8 || spec.Labels != 16 || spec.Seed != 1 || spec.Machines != 8 {
		t.Fatalf("rmat defaults = %+v", spec)
	}

	// File and text sources carry a path plus trailing options.
	spec, err = ParseNamespaceSpec("t3", "file:/data/g.bin,machines=4,inflight=2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Source != "file" || spec.Path != "/data/g.bin" || spec.Machines != 4 || spec.MaxInFlight != 2 {
		t.Fatalf("file spec = %+v", spec)
	}
	spec, err = ParseNamespaceSpec("t4", "text:rel/graph.txt")
	if err != nil || spec.Source != "text" || spec.Path != "rel/graph.txt" {
		t.Fatalf("text spec = %+v err=%v", spec, err)
	}

	for _, bad := range badSpecs {
		if _, err := ParseNamespaceSpec(bad.name, bad.spec); err == nil {
			t.Errorf("ParseNamespaceSpec(%q, %q) accepted an invalid spec", bad.name, bad.spec)
		}
	}
}

// badSpecs are specs ParseNamespaceSpec must refuse; they also seed
// FuzzParseNamespaceSpec.
var badSpecs = []struct{ name, spec string }{
	{"bad name", "rmat:scale=10"},           // invalid name
	{"t", "rmat"},                           // no colon
	{"t", "zip:/g.bin"},                     // unknown kind
	{"t", "rmat:degree=8"},                  // rmat without scale
	{"t", "rmat:scale=0"},                   // scale must be ≥ 1
	{"t", "rmat:scale=ten"},                 // non-integer value
	{"t", "rmat:scale=10,flavor=hot"},       // unknown option
	{"t", "rmat:scale=10,degree"},           // option without value
	{"t", "rmat:scale=10,relabel=pagerank"}, // unsupported relabel mode
	{"t", "rmat:scale=10,machines=0"},
	{"t", "rmat:scale=10,maxbytes=-1"},
	{"t", "file:"},                           // file without path
	{"t", "file:/g.bin,scale=10"},            // rmat-only option on a file source
	{"t", "text:/g.txt,seed=7"},              // rmat-only option on a text source
	{"t", "rmat:scale=10,relabel="},          // ... nor an empty one
	{"t", "rmat:scale=10,=5"},                // option without a key
	{"t", "rmat:scale=99999999999999999999"}, // out of range
	{"t", "rmat:scale=10,parallelism=x"},     // a retired key is still checked...
	{"t", "rmat:scale=10,plancache=abc"},     // ...as an integer...
	{"t", "rmat:scale=10,semijoincap=1.5"},   // ...before it is discarded
}

// goldenSpecs maps accepted specs to their canonical SpecString bytes, which
// manifests written by earlier builds already hold. The specs carrying
// retired keys (parallelism, plancache, semijoincap) are what earlier
// builds wrote: they still parse, and render without them.
var goldenSpecs = map[string]string{
	"rmat:scale=10":                       "rmat:scale=10,degree=8,labels=16,seed=1,machines=8",
	"rmat:scale=5,,parallelism=2,scale=6": "rmat:scale=6,degree=8,labels=16,seed=1,machines=8",
	"file:/data/g.bin":                    "file:/data/g.bin,machines=8",
	"text:rel/graph.txt,plancache=-1":     "text:rel/graph.txt,machines=8",
	"rmat:scale=12,degree=6,labels=4,seed=9,machines=2,inflight=3,maxmatches=100,maxbytes=4096,relabel=degree":                                            "rmat:scale=12,degree=6,labels=4,seed=9,relabel=degree,machines=2,inflight=3,maxmatches=100,maxbytes=4096",
	"rmat:scale=12,degree=6,labels=4,seed=9,machines=2,plancache=64,inflight=3,maxmatches=100,maxbytes=4096,relabel=degree,semijoincap=-1":                "rmat:scale=12,degree=6,labels=4,seed=9,relabel=degree,machines=2,inflight=3,maxmatches=100,maxbytes=4096",
	"rmat:scale=6,degree=8,labels=16,seed=1,machines=8,parallelism=2":                                                                                     "rmat:scale=6,degree=8,labels=16,seed=1,machines=8",
	"rmat:scale=12,degree=6,labels=4,seed=9,relabel=degree,machines=2,plancache=64,inflight=3,maxmatches=100,maxbytes=4096,parallelism=-1,semijoincap=-1": "rmat:scale=12,degree=6,labels=4,seed=9,relabel=degree,machines=2,inflight=3,maxmatches=100,maxbytes=4096",
}

// TestSpecStringGolden pins SpecString's bytes: the manifest stores them, so
// a data dir written by an earlier build must recover to the same specs.
func TestSpecStringGolden(t *testing.T) {
	for spec, want := range goldenSpecs {
		got, err := ParseNamespaceSpec("g", spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got.SpecString() != want {
			t.Errorf("%q renders as\n %q, want\n %q", spec, got.SpecString(), want)
		}
	}
	// The -graph boot path builds its spec literally, rmat fields zero.
	boot := NamespaceSpec{Name: DefaultNamespace, Source: "file", Path: "/data/g.bin", Machines: 8}
	if got, want := boot.SpecString(), "file:/data/g.bin,machines=8"; got != want {
		t.Errorf("literal file spec renders as %q, want %q", got, want)
	}
}

// FuzzParseNamespaceSpec: spec strings arrive over POST /v1/ns and are
// persisted. The parser must never panic, and whatever it accepts must
// survive the manifest round trip unchanged.
func FuzzParseNamespaceSpec(f *testing.F) {
	for _, bad := range badSpecs {
		f.Add(bad.name, bad.spec)
	}
	for spec := range goldenSpecs {
		f.Add("t", spec)
	}
	f.Fuzz(func(t *testing.T, name, text string) {
		spec, err := ParseNamespaceSpec(name, text)
		if err != nil {
			return
		}
		again, err := ParseNamespaceSpec(name, spec.SpecString())
		if err != nil || again != spec {
			t.Fatalf("ParseNamespaceSpec(%q, %q) = %+v, but its SpecString %q re-parses to %+v, %v",
				name, text, spec, spec.SpecString(), again, err)
		}
	})
}

func TestParseNamespaceFlag(t *testing.T) {
	spec, err := ParseNamespaceFlag("tenantA=rmat:scale=8,labels=2")
	if err != nil || spec.Name != "tenantA" || spec.Scale != 8 || spec.Labels != 2 {
		t.Fatalf("flag spec = %+v err=%v", spec, err)
	}
	if _, err := ParseNamespaceFlag("just-a-name"); err == nil {
		t.Fatal("flag without '=' accepted")
	}
	if _, err := ParseNamespaceFlag("=rmat:scale=8"); err == nil {
		t.Fatal("flag without a name accepted")
	}
}

func TestNamespaceSpecConfigFor(t *testing.T) {
	base := Config{MaxInFlight: 16, MaxMatches: 500, MaxBytes: 1 << 20, DefaultTimeout: time.Second}
	got := NamespaceSpec{MaxInFlight: 2, MaxBytes: 4096}.configFor(base)
	if got.MaxInFlight != 2 || got.MaxBytes != 4096 {
		t.Fatalf("overrides not applied: %+v", got)
	}
	if got.MaxMatches != 500 || got.DefaultTimeout != time.Second {
		t.Fatalf("inherited fields clobbered: %+v", got)
	}
	// No overrides → the base config verbatim.
	if got := (NamespaceSpec{}).configFor(base); got != base {
		t.Fatalf("zero spec changed the base: %+v", got)
	}
}

// TestRegistryDuplicateAndRemove covers the registry invariants the admin
// API leans on: duplicate adds fail, remove is idempotent-observable.
func TestRegistryDuplicateAndRemove(t *testing.T) {
	r := newRegistry()
	if err := r.add(newNamespace("a", nil, Config{}, nil), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.add(newNamespace("a", nil, Config{}, nil), 0); err == nil {
		t.Fatal("duplicate add accepted")
	}
	// The ceiling is enforced atomically at add time; 0 means uncapped.
	if err := r.add(newNamespace("b", nil, Config{}, nil), 1); !errors.Is(err, ErrNamespaceCapacity) {
		t.Fatalf("add beyond ceiling: err = %v, want ErrNamespaceCapacity", err)
	}
	if err := r.add(newNamespace("b", nil, Config{}, nil), 2); err != nil {
		t.Fatalf("add within ceiling: %v", err)
	}
	if _, ok := r.get("a"); !ok {
		t.Fatal("get after add failed")
	}
	if _, ok := r.remove("a"); !ok {
		t.Fatal("remove of existing namespace reported absent")
	}
	if _, ok := r.remove("a"); ok {
		t.Fatal("second remove reported present")
	}
	// Only "b" (admitted within the ceiling above) remains.
	if names := r.list(); len(names) != 1 || names[0].name != "b" {
		t.Fatalf("list after removing %q = %d entries, want just %q", "a", len(names), "b")
	}
}

// TestConfigShardMap pins the cluster knobs: URL promotion in normalize,
// the validation refusals (empty entries, out-of-range ShardID, a
// coordinator doubling as a follower), and the FromEnv plumbing with
// ShardID seeded to the coordinator sentinel so shard zero stays
// expressible through the environment.
func TestConfigShardMap(t *testing.T) {
	norm := Config{ShardMap: "host1:7031, host2:7032/"}.normalize()
	if norm.ShardMap != "http://host1:7031,http://host2:7032" {
		t.Fatalf("normalized shard map = %q", norm.ShardMap)
	}

	ok := Config{ShardMap: "http://a:1,http://b:2", ShardID: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid shard config refused: %v", err)
	}
	coord := Config{ShardMap: "http://a:1,http://b:2", ShardID: -1}
	if err := coord.Validate(); err != nil {
		t.Fatalf("valid coordinator config refused: %v", err)
	}
	for _, bad := range []Config{
		{ShardMap: "http://a:1,,http://b:2", ShardID: 0},             // empty entry
		{ShardMap: "http://a:1,http://b:2", ShardID: 2},              // id past the map
		{ShardMap: "http://a:1", ShardID: -1, FollowURL: "http://l"}, // coordinator + follower
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}

	cfg, err := Config{ShardID: -1}.FromEnv(lookupMap(map[string]string{
		"STWIGD_SHARD_MAP": "http://a:1,http://b:2",
		"STWIGD_SHARD_ID":  "0",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ShardMap != "http://a:1,http://b:2" || cfg.ShardID != 0 {
		t.Fatalf("FromEnv shard config = map %q id %d", cfg.ShardMap, cfg.ShardID)
	}
	if cfg, err = (Config{ShardID: -1}).FromEnv(lookupMap(nil)); err != nil || cfg.ShardID != -1 {
		t.Fatalf("unset STWIGD_SHARD_ID must keep the seed: id %d, err %v", cfg.ShardID, err)
	}
}
