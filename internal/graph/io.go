package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format
//
// A human-editable graph file is line-oriented:
//
//	# comment
//	v <id> <label>
//	e <src> <dst>
//
// Vertex IDs must be dense 0..n-1 and each vertex declared before use by an
// edge. WriteText emits vertices in ID order followed by edges.

// ReadText parses the text graph format from r.
func ReadText(r io.Reader, opts ...BuilderOption) (*Graph, error) {
	b := NewBuilder(opts...)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'v <id> <label>', got %q", lineNo, line)
			}
			id, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id: %v", lineNo, err)
			}
			if id != b.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: vertex id %d out of order (want %d)", lineNo, id, b.NumNodes())
			}
			b.AddNode(fields[2])
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e <src> <dst>', got %q", lineNo, line)
			}
			u, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
			}
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
			}
			if err := b.AddEdge(NodeID(u), NodeID(v)); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	return b.Build(), nil
}

// WriteText writes g in the text format. Undirected graphs store each edge
// twice; WriteText emits each undirected edge once (u < v) so a round-trip
// through ReadText with Undirected() reproduces the graph.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumNodes()
	for v := int64(0); v < n; v++ {
		if _, err := fmt.Fprintf(bw, "v %d %s\n", v, g.LabelString(NodeID(v))); err != nil {
			return err
		}
	}
	for v := int64(0); v < n; v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			if !g.directed && u < NodeID(v) {
				continue // emitted from the other side
			}
			if _, err := fmt.Fprintf(bw, "e %d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Binary format
//
// The binary format is a little-endian dump of the CSR arrays plus the label
// table, prefixed by a magic and version:
//
//	magic "STWG" | version u32 | flags u32 | n u64 | m u64 | labelCount u32
//	label strings (u32 len + bytes) ...
//	labels  []u32 (n entries)
//	offsets []u64 (n+1 entries)
//	adj     []u64 (m entries)

const (
	binaryMagic   = "STWG"
	binaryVersion = 1
	flagDirected  = 1 << 0
)

// BinarySource is what WriteBinaryFrom serializes: a vertex-labeled adjacency
// structure read vertex by vertex, so a source that is not a *Graph (the
// memory cloud's live cells) is written without first being built into one.
type BinarySource interface {
	NumNodes() int64
	Directed() bool
	// LabelNames is the label table, indexed by the LabelIDs Label returns.
	LabelNames() []string
	Label(v NodeID) LabelID
	// Degree is len(Neighbors(v)), without producing the adjacency.
	Degree(v NodeID) int
	// Neighbors is v's sorted adjacency, read only until the next call.
	Neighbors(v NodeID) []NodeID
}

// LabelNames returns the label strings indexed by LabelID.
func (g *Graph) LabelNames() []string { return g.table.Names() }

// WriteBinary serializes g in the binary format.
func WriteBinary(w io.Writer, g *Graph) error { return WriteBinaryFrom(w, g) }

// WriteBinaryFrom serializes src in the binary format. It walks the vertices
// four times (edge count, labels, offsets, adjacency) and holds nothing but
// its write buffer; only the last walk asks for adjacency.
func WriteBinaryFrom(w io.Writer, src BinarySource) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var flags uint32
	if src.Directed() {
		flags |= flagDirected
	}
	n := src.NumNodes()
	var m uint64
	for v := int64(0); v < n; v++ {
		m += uint64(src.Degree(NodeID(v)))
	}
	names := src.LabelNames()
	var buf [8]byte
	writeU32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], x)
		_, err := bw.Write(buf[:4])
		return err
	}
	writeU64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(buf[:8], x)
		_, err := bw.Write(buf[:8])
		return err
	}
	if err := writeU32(binaryVersion); err != nil {
		return err
	}
	if err := writeU32(flags); err != nil {
		return err
	}
	if err := writeU64(uint64(n)); err != nil {
		return err
	}
	if err := writeU64(m); err != nil {
		return err
	}
	if err := writeU32(uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeU32(uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	for v := int64(0); v < n; v++ {
		if err := writeU32(uint32(src.Label(NodeID(v)))); err != nil {
			return err
		}
	}
	var off uint64
	if err := writeU64(off); err != nil {
		return err
	}
	for v := int64(0); v < n; v++ {
		off += uint64(src.Degree(NodeID(v)))
		if err := writeU64(off); err != nil {
			return err
		}
	}
	for v := int64(0); v < n; v++ {
		if err := writeIDs(bw, src.Neighbors(NodeID(v))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeIDs writes ids as little-endian u64s, encoded straight into bw's
// buffer rather than passed through it eight bytes at a time.
func writeIDs(bw *bufio.Writer, ids []NodeID) error {
	for len(ids) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		k := min(len(ids), cap(b)/8)
		for _, a := range ids[:k] {
			b = binary.LittleEndian.AppendUint64(b, uint64(a))
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		ids = ids[k:]
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var b4 [4]byte
	var b8 [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b4[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b4[:]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	flags, err := readU32()
	if err != nil {
		return nil, err
	}
	n, err := readU64()
	if err != nil {
		return nil, err
	}
	m, err := readU64()
	if err != nil {
		return nil, err
	}
	labelCount, err := readU32()
	if err != nil {
		return nil, err
	}
	table := NewLabelTable()
	for i := uint32(0); i < labelCount; i++ {
		sz, err := readU32()
		if err != nil {
			return nil, err
		}
		name := make([]byte, sz)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		table.Intern(string(name))
	}
	labels := make([]LabelID, n)
	for i := range labels {
		x, err := readU32()
		if err != nil {
			return nil, err
		}
		labels[i] = LabelID(x)
	}
	offsets := make([]int64, n+1)
	for i := range offsets {
		x, err := readU64()
		if err != nil {
			return nil, err
		}
		offsets[i] = int64(x)
	}
	adj := make([]NodeID, m)
	for i := range adj {
		x, err := readU64()
		if err != nil {
			return nil, err
		}
		adj[i] = NodeID(x)
	}
	g := &Graph{offsets: offsets, adj: adj, labels: labels, table: table, directed: flags&flagDirected != 0}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return g, nil
}
