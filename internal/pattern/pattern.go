// Package pattern provides a compact Cypher-like syntax for subgraph
// queries, compiling to core.Query. The paper positions general subgraph
// matching against SPARQL's restricted edge patterns (§1.1); this package
// is the corresponding ergonomic front end.
//
// Syntax:
//
//	(a:author)-(p:paper), (p)-(v:venue), (a)-(v)
//
// A pattern is a comma-separated list of chains; a chain is a sequence of
// parenthesized vertices joined by '-', each adjacent pair contributing one
// undirected edge. A vertex is written (name:label); the label may be
// omitted on repeat mentions. Whitespace is insignificant. An optional
// leading "MATCH" keyword is accepted.
package pattern

import (
	"fmt"
	"strings"
	"unicode"

	"stwig/internal/core"
)

// Parse compiles a pattern into a query. Every variable must carry a label
// on at least one mention, labels must not conflict, and the resulting
// graph must be connected with at least one edge (the engine's
// requirements).
func Parse(input string) (*core.Query, error) {
	p := &parser{src: input}
	p.skipSpace()
	// Optional MATCH keyword.
	if rest, ok := p.keyword("MATCH"); ok {
		p.pos = rest
	}
	// The variables in order of first mention; a pattern names a handful,
	// so a scan finds one faster than a map would. Every mention and every
	// edge takes a '(' of its own, which bounds both lists.
	mentions := strings.Count(input, "(")
	vars := make([]variable, 0, mentions)
	edges := make([][2]int, 0, mentions)

	lookup := func(name, label string) (int, error) {
		for i := range vars {
			v := &vars[i]
			if v.name != name {
				continue
			}
			if label != "" {
				if v.label != "" && v.label != label {
					return 0, fmt.Errorf("pattern: variable %q relabeled %q -> %q", name, v.label, label)
				}
				v.label = label
			}
			return i, nil
		}
		vars = append(vars, variable{name: name, label: label})
		return len(vars) - 1, nil
	}

	for {
		// One chain.
		prev := -1
		for {
			name, label, err := p.node()
			if err != nil {
				return nil, err
			}
			v, err := lookup(name, label)
			if err != nil {
				return nil, err
			}
			if prev >= 0 {
				edges = append(edges, [2]int{prev, v})
			}
			prev = v
			p.skipSpace()
			if !p.consume('-') {
				break
			}
			p.skipSpace()
		}
		p.skipSpace()
		if !p.consume(',') {
			break
		}
		p.skipSpace()
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("pattern: unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}

	labels := make([]string, len(vars))
	for i, v := range vars {
		if v.label == "" {
			return nil, fmt.Errorf("pattern: variable %q has no label on any mention", v.name)
		}
		labels[i] = v.label
	}
	q, err := core.NewQuery(labels, edges)
	if err != nil {
		return nil, err
	}
	if q.NumEdges() == 0 {
		return nil, fmt.Errorf("pattern: query has no edges")
	}
	if !q.Connected() {
		return nil, fmt.Errorf("pattern: query graph is not connected")
	}
	return q, nil
}

// variable is one pattern variable: its name and the label some mention
// gave it.
type variable struct{ name, label string }

// MustParse is Parse that panics on error; for examples and tests.
func MustParse(input string) *core.Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// Format renders q back into pattern syntax with generated variable names
// v0, v1, .... Vertices are listed first in index order (as single-node
// chains), so parsing the output reproduces q's exact vertex numbering.
func Format(q *core.Query) string {
	parts := make([]string, 0, q.NumVertices()+q.NumEdges())
	for v := 0; v < q.NumVertices(); v++ {
		parts = append(parts, fmt.Sprintf("(v%d:%s)", v, q.Label(v)))
	}
	for _, e := range q.Edges() {
		parts = append(parts, fmt.Sprintf("(v%d)-(v%d)", e[0], e[1]))
	}
	return strings.Join(parts, ", ")
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

// keyword matches an uppercase-insensitive keyword followed by whitespace.
func (p *parser) keyword(kw string) (after int, ok bool) {
	end := p.pos + len(kw)
	if end >= len(p.src) {
		return 0, false
	}
	if !strings.EqualFold(p.src[p.pos:end], kw) {
		return 0, false
	}
	if !unicode.IsSpace(rune(p.src[end])) {
		return 0, false
	}
	return end + 1, true
}

func (p *parser) consume(c byte) bool {
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// node parses "(name)" or "(name:label)".
func (p *parser) node() (name, label string, err error) {
	if !p.consume('(') {
		return "", "", fmt.Errorf("pattern: expected '(' at offset %d", p.pos)
	}
	p.skipSpace()
	name = p.ident()
	if name == "" {
		return "", "", fmt.Errorf("pattern: expected variable name at offset %d", p.pos)
	}
	p.skipSpace()
	if p.consume(':') {
		p.skipSpace()
		label = p.ident()
		if label == "" {
			return "", "", fmt.Errorf("pattern: expected label after ':' at offset %d", p.pos)
		}
		p.skipSpace()
	}
	if !p.consume(')') {
		return "", "", fmt.Errorf("pattern: expected ')' at offset %d", p.pos)
	}
	return name, label, nil
}

// ident scans an identifier: letters, digits, '_', '.', '-' are allowed
// except that '-' is the edge separator and so excluded here.
func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}
