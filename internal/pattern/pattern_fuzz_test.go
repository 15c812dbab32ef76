package pattern

import (
	"testing"

	"stwig/internal/core"
)

// FuzzParse hardens the inline pattern DSL against arbitrary network input:
// stwigd's /query endpoint hands request strings straight to Parse, so no
// input may panic, and anything accepted must satisfy the engine's query
// invariants and round-trip through Format to the same query.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(a:author)-(p:paper), (p)-(v:venue), (a)-(v)",
		"MATCH (a:x)-(b:y)",
		"(a:x)-(b:y)-(c:z)",
		"(a)-(b)",
		"(a:x)",
		"(a:x)-(a)",
		"((",
		"(a:x)-(b:y), (c:z)-(d:w)",
		"(a : x) - (b : y)",
		"(a:x)-(b:y),",
		"(é:café)-(b:y)",
		"(a:x)-(b:y) trailing",
		"",
		"MATCH",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		// Parse enforces the engine's requirements on anything it accepts.
		if err := core.ValidateQuery(q); err != nil {
			t.Fatalf("accepted pattern violates engine invariants: %v (input %q)", err, input)
		}
		// Format output re-parses to the same query (its canonical String),
		// so a formatted pattern is planned alike.
		q2, err := Parse(Format(q))
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\n%s", err, Format(q))
		}
		if q.String() != q2.String() {
			t.Fatalf("Format round trip changed the query:\n  %q\n  %q", q.String(), q2.String())
		}
	})
}
