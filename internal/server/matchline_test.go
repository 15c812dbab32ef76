package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stwig/internal/graph"
)

// jsonMatchLine is the reference spelling: what encoding/json writes for a
// match Record, plus the NDJSON newline.
func jsonMatchLine(t testing.TB, assignment []int64) []byte {
	t.Helper()
	raw, err := json.Marshal(Record{Type: RecordMatch, Assignment: assignment})
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestMatchLineEqualsEncodingJSON pins the canonical match line to the bytes
// encoding/json has always put on the wire — a literal golden plus generated
// assignments — and that the scanner and the client's parser read back
// exactly what the encoder wrote.
func TestMatchLineEqualsEncodingJSON(t *testing.T) {
	const golden = `{"type":"match","assignment":[1,2,3]}` + "\n"
	if got := appendMatchLine(nil, []graph.NodeID{1, 2, 3}); string(got) != golden {
		t.Fatalf("golden match line:\n got %q\nwant %q", got, golden)
	}
	if got := appendMatchLine(nil, []graph.NodeID{}); string(got) != `{"type":"match"}`+"\n" {
		t.Fatalf("empty assignment: got %q", got)
	}

	interesting := []int64{0, 1, -1, 9, 10, -10, 1<<31 - 1, 1 << 32, 1e18, 1234567890123456789, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		assignment := make([]int64, rng.Intn(9))
		ids := make([]graph.NodeID, len(assignment))
		for j := range assignment {
			if rng.Intn(3) == 0 {
				assignment[j] = interesting[rng.Intn(len(interesting))]
			} else {
				assignment[j] = rng.Int63() >> rng.Intn(63)
				if rng.Intn(4) == 0 {
					assignment[j] = -assignment[j]
				}
			}
			ids[j] = graph.NodeID(assignment[j])
		}
		want := jsonMatchLine(t, assignment)
		got := appendMatchLine([]byte("kept"), ids)
		if !bytes.Equal(got[4:], want) || string(got[:4]) != "kept" {
			t.Fatalf("assignment %v:\n got %q\nwant %q", assignment, got, want)
		}
		if n := scanMatchRecord(want, nil); n != len(want)-1 {
			t.Fatalf("scanner accepts %d of %d bytes of %q", n, len(want), want)
		}
		if len(want) > maxMatchLineLen(len(assignment)) {
			t.Fatalf("%q is longer than maxMatchLineLen(%d) = %d", want, len(assignment), maxMatchLineLen(len(assignment)))
		}
		for _, line := range [][]byte{want, want[:len(want)-1]} { // with and without the newline
			parsed, ok := ParseMatchLine(line, nil)
			if !ok || !slices.Equal(parsed, assignment) {
				t.Fatalf("ParseMatchLine(%q) = %v, %v; want %v", line, parsed, ok, assignment)
			}
		}
	}
}

// matchLineSeeds are lines the scanner must tell apart: canonical ones, and
// near misses that are valid JSON in another spelling or not JSON at all.
var matchLineSeeds = []struct {
	line      string
	canonical bool
}{
	{`{"type":"match","assignment":[1,2,3]}`, true},
	{`{"type":"match","assignment":[0]}`, true},
	{`{"type":"match","assignment":[-7,9223372036854775807,-9223372036854775808]}`, true},
	{`{"type":"match"}`, true},
	{`{"type":"match","assignment":[]}`, false},
	{`{"type":"match","assignment":[1, 2]}`, false},
	{`{ "type":"match","assignment":[1,2]}`, false},
	{`{"assignment":[1,2],"type":"match"}`, false},
	{`{"type":"match","assignment":[01]}`, false},
	{`{"type":"match","assignment":[-0]}`, false},
	{`{"type":"match","assignment":[-]}`, false},
	{`{"type":"match","assignment":[1,]}`, false},
	{`{"type":"match","assignment":[,1]}`, false},
	{`{"type":"match","assignment":[1.5]}`, false},
	{`{"type":"match","assignment":[1e3]}`, false},
	{`{"type":"match","assignment":[9223372036854775808]}`, false},
	{`{"type":"match","assignment":[-9223372036854775809]}`, false},
	{`{"type":"match","assignment":[12345678901234567890]}`, false},
	{`{"type":"match","assignment":[1,2]`, false},
	{`{"type":"match","assignment":[1,2]}}`, false},
	{`{"type":"match","assignment":[1,2]} `, false},
	{`{"type":"match"} `, false},
	{`{"type":"match","assignment":[1],"error":"x"}`, false},
	{`{"type":"stats","stats":{"matches":1}}`, false},
	{`{"type":"error","error":"boom"}`, false},
	{``, false},
	{`garbage`, false},
}

func TestMatchLineScannerTable(t *testing.T) {
	for _, s := range matchLineSeeds {
		line := []byte(s.line)
		if got := scanMatchRecord(line, nil) == len(line) && len(line) > 0; got != s.canonical {
			t.Errorf("scanMatchRecord(%q): canonical = %v, want %v", s.line, got, s.canonical)
		}
		if _, ok := ParseMatchLine(line, nil); ok != s.canonical {
			t.Errorf("ParseMatchLine(%q): ok = %v, want %v", s.line, ok, s.canonical)
		}
		// A coordinator's leg reader forwards a line with this prefix as a
		// match without decoding it.
		if s.canonical && !hasPrefix(line, matchLinePrefix) {
			t.Errorf("canonical %q lacks the match-line prefix %q", s.line, matchLinePrefix)
		}
	}
}

// FuzzMatchLine: the scanner never panics, and whatever it accepts is a
// match record that encoding/json reads and writes back as the same bytes —
// so forwarding an accepted line unparsed is indistinguishable from decoding
// and re-encoding it.
func FuzzMatchLine(f *testing.F) {
	for _, s := range matchLineSeeds {
		f.Add([]byte(s.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		n := scanMatchRecord(line, nil)
		if n < 0 || n > len(line) {
			t.Fatalf("scanMatchRecord(%q) = %d, outside the input", line, n)
		}
		parsed, ok := ParseMatchLine(line, nil)
		withNewline := n > 0 && n == len(line)-1 && line[n] == '\n'
		if ok != (n > 0 && (n == len(line) || withNewline)) {
			t.Fatalf("ParseMatchLine(%q) ok = %v, scanner accepted %d bytes", line, ok, n)
		}
		if n == 0 {
			return
		}
		var rec Record
		if err := json.Unmarshal(line[:n], &rec); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json does not: %v", line[:n], err)
		}
		if rec.Type != RecordMatch || rec.Error != "" || rec.Code != "" || rec.TraceID != "" || rec.Stats != nil {
			t.Fatalf("scanner accepted %q, which decodes to %+v", line[:n], rec)
		}
		if again := jsonMatchLine(t, rec.Assignment); !bytes.Equal(again[:len(again)-1], line[:n]) {
			t.Fatalf("scanner accepted %q, which re-encodes as %q", line[:n], again)
		}
		if ok && !slices.Equal(parsed, rec.Assignment) {
			t.Fatalf("ParseMatchLine(%q) = %v, encoding/json says %v", line, parsed, rec.Assignment)
		}
		if own := appendMatchLine(nil, rec.Assignment); !bytes.Equal(own[:len(own)-1], line[:n]) {
			t.Fatalf("scanner accepted %q, the encoder writes %q", line[:n], own)
		}
	})
}

// TestTerminalRecordsMatchEncodingJSON is the golden for the terminal
// records' append encoder: a local trailer, a coordinator trailer whose legs'
// url and error need escaping, and error records, each byte for byte what
// encoding/json writes for the same Record plus the NDJSON newline.
func TestTerminalRecordsMatchEncodingJSON(t *testing.T) {
	golden := func(t *testing.T, rec Record, got []byte) {
		t.Helper()
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("append encoder wrote\n%s\nencoding/json writes\n%s", got, want)
		}
	}
	stats := map[string]*StreamStats{
		"empty": {},
		"local": {TraceID: "e2e-trace-0123", Matches: 2, PlanMicros: 12, ExploreMicros: 80,
			JoinMicros: 9, ElapsedMicros: 104, NetMessages: 48, NetBytes: 1936, EmitFlushes: 2},
		"capped": {Matches: math.MaxInt64, Truncated: true, LimitHit: true, ByteCapHit: true, PlanCacheHit: true,
			PlanMicros: -1, NetMessages: math.MaxUint64, NetBytes: 1},
		"coordinator": {TraceID: "cluster-trace-0001", Matches: 42, ElapsedMicros: 900, Shards: []ShardLegStats{
			{Shard: 0, URL: "http://127.0.0.1:7051", Matches: 20, Bytes: 1234, ElapsedMicros: 800},
			{Shard: 1, URL: `http://h/"a"\b?x=<1>&y=2`, Matches: 22, Bytes: 5, ElapsedMicros: 1,
				Error: "shard 1 (\"dead\") unavailable:\n\tread: connection reset <&>   café \xff\x01"},
			{Shard: 2},
		}},
	}
	// Every field set, however many StreamStats and ShardLegStats grow: a
	// field the encoder does not write fails here.
	every := &StreamStats{}
	fillEveryField(reflect.ValueOf(every).Elem())
	stats["every field"] = every
	for name, st := range stats {
		t.Run("stats/"+name, func(t *testing.T) {
			golden(t, Record{Type: RecordStats, Stats: st}, st.appendRecord([]byte("prefix\n"))[len("prefix\n"):])
		})
	}
	for name, e := range map[string]Record{
		"plain":   {Error: "deadline exceeded", Code: CodeDeadline, TraceID: "slow-query-trace"},
		"escaped": {Error: "pattern: unexpected \"x\" at offset 3 <&>\té\x7f\xfe", Code: CodeBadRequest},
		"bare":    {},
	} {
		t.Run("error/"+name, func(t *testing.T) {
			e.Type = RecordError
			golden(t, e, appendErrorRecord(nil, e.Error, e.Code, e.TraceID))
		})
	}
}

// fillEveryField sets every field of the struct v, and of the structs in
// its slices, to a value that is not its zero: strings that need escaping,
// true, 7, and two-element slices.
func fillEveryField(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("<%s \"%d\">", v.Type().Field(i).Name, i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for j := 0; j < 2; j++ {
				fillEveryField(f.Index(j))
			}
		default:
			panic("fillEveryField: no value for a " + f.Kind().String())
		}
	}
}
