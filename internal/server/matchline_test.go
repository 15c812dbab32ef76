package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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
