package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
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

// BinarySize returns the number of bytes WriteBinaryFrom writes for src: the
// header, the label table, and 4 + 8 bytes per vertex plus 8 per adjacency
// entry. It walks the vertices once for their degrees and writes nothing.
func BinarySize(src BinarySource) int64 {
	size := int64(binaryHeaderSize)
	for _, name := range src.LabelNames() {
		size += 4 + int64(len(name))
	}
	n := src.NumNodes()
	size += 4*n + 8*(n+1) // labels, offsets
	for v := int64(0); v < n; v++ {
		size += 8 * int64(src.Degree(NodeID(v)))
	}
	return size
}

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

// ReadBinary deserializes a graph written by WriteBinary. It is a client of
// BinaryDecoder, which makes every check of the format; ReadBinary only
// decides where the arrays land: in a Graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	d, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, err
	}
	n := d.NumNodes()
	g := &Graph{
		offsets:  make([]int64, n+1),
		adj:      make([]NodeID, d.NumEdges()),
		labels:   make([]LabelID, n),
		table:    d.Labels(),
		directed: d.Directed(),
	}
	if err := d.ReadLabels(g.labels); err != nil {
		return nil, err
	}
	if err := d.ReadDegrees(g.offsets[1:]); err != nil {
		return nil, err
	}
	for v := int64(0); v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	for v := int64(0); v < n; v++ {
		if err := d.ReadNeighbors(g.Neighbors(NodeID(v))); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// BinaryDecoder reads a graph in the binary format in one sequential pass,
// in the order the format lays it out: the header and the label table
// (NewBinaryDecoder), then every vertex's label (ReadLabels), every vertex's
// degree (ReadDegrees) and every vertex's adjacency (ReadNeighbors), each in
// ascending vertex order, in as many calls as the caller likes. It holds its
// read buffer and nothing per vertex or per edge: the caller decides where
// each array lands, so a loader can decode a graph straight into its final
// layout.
//
// It makes every check the format implies and reports a violation as an
// error: magic and version; label names distinct; each vertex's label named
// by the table, or NoLabel; offsets[0] = 0, offsets monotone, and
// offsets[n] = m; neighbours in [0, n) and each adjacency sorted. Where the
// stream's length is known — a file, or a reader with a Len method — the
// header's counts must also fit in it, so a corrupt count is an error and
// not an allocation of its size; a stream of unknown length (a network
// body) is trusted for its counts.
type BinaryDecoder struct {
	br       *bufio.Reader
	n, m     int64
	directed bool
	labels   *LabelTable
	phase    decodePhase
	// next is the vertex the current phase reads next.
	next int64
	// off is offsets[next] in the degrees phase, and read the adjacency
	// entries read so far.
	off, read int64
}

type decodePhase int

const (
	decodingLabels decodePhase = iota
	decodingDegrees
	decodingNeighbors
	decoded
)

// binaryHeaderSize is the fixed header: magic, version, flags, n, m and the
// label count.
const binaryHeaderSize = 4 + 4 + 4 + 8 + 8 + 4

// NewBinaryDecoder reads the header and the label table from r.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	size, sized := streamSize(r)
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	m := binary.LittleEndian.Uint64(hdr[20:])
	labelCount := binary.LittleEndian.Uint32(hdr[28:])

	// The rest of the stream holds at least 4 bytes per label name, 4 + 8
	// per vertex, one offset more and 8 per adjacency entry; spare is what
	// it holds beyond that, which only the names' bytes may use.
	limit := uint64(math.MaxInt64)
	if sized {
		limit = uint64(max(size-binaryHeaderSize, 0))
	}
	spare, ok := limit, true
	for _, part := range [][2]uint64{{uint64(labelCount), 4}, {n, 12}, {1, 8}, {m, 8}} {
		hi, need := bits.Mul64(part[0], part[1])
		if hi != 0 || need > spare {
			ok = false
			break
		}
		spare -= need
	}
	if !ok {
		return nil, fmt.Errorf("graph: header claims %d vertices, %d adjacency entries and %d labels, more than the stream holds", n, m, labelCount)
	}

	d := &BinaryDecoder{br: br, n: int64(n), m: int64(m), directed: flags&flagDirected != 0, labels: NewLabelTable()}
	var name []byte
	for i := uint32(0); i < labelCount; i++ {
		b, err := d.chunk(4, 1)
		if err != nil {
			return nil, err
		}
		sz := binary.LittleEndian.Uint32(b)
		d.discard(4)
		if uint64(sz) > spare {
			return nil, fmt.Errorf("graph: label %d is %d bytes long, more than the stream holds", i, sz)
		}
		spare -= uint64(sz)
		name = slices.Grow(name[:0], int(sz))[:sz]
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, truncated(err)
		}
		if d.labels.Intern(string(name)) != LabelID(i) {
			return nil, fmt.Errorf("graph: label %q is named twice", name)
		}
	}
	if err := d.advance(); err != nil {
		return nil, err
	}
	return d, nil
}

// streamSize returns how many bytes r has left, when r can tell: a regular
// file, or an in-memory reader with a Len method.
func streamSize(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		pos, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - pos, true
	}
	return 0, false
}

// NumNodes returns the vertex count n the header declares.
func (d *BinaryDecoder) NumNodes() int64 { return d.n }

// NumEdges returns the adjacency-entry count m the header declares.
func (d *BinaryDecoder) NumEdges() int64 { return d.m }

// Directed reports the header's directed flag.
func (d *BinaryDecoder) Directed() bool { return d.directed }

// Labels returns the label table, whose LabelIDs are the file's.
func (d *BinaryDecoder) Labels() *LabelTable { return d.labels }

// ReadLabels decodes the labels of the next len(dst) vertices into dst. A
// read of no labels does nothing.
func (d *BinaryDecoder) ReadLabels(dst []LabelID) error {
	if err := d.begin(decodingLabels, len(dst)); err != nil || len(dst) == 0 {
		return err
	}
	count := LabelID(d.labels.Len())
	for len(dst) > 0 {
		b, err := d.chunk(4, len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 4
		for i := range k {
			l := LabelID(binary.LittleEndian.Uint32(b[4*i:]))
			if l >= count && l != NoLabel {
				return fmt.Errorf("graph: vertex %d has label %d, but the table names %d labels", d.next+int64(i), l, count)
			}
			dst[i] = l
		}
		d.discard(len(b))
		dst = dst[k:]
		d.next += int64(k)
	}
	return d.advance()
}

// ReadDegrees decodes the degrees of the next len(dst) vertices into dst,
// from the offsets. A read of no degrees does nothing.
func (d *BinaryDecoder) ReadDegrees(dst []int64) error {
	if err := d.begin(decodingDegrees, len(dst)); err != nil || len(dst) == 0 {
		return err
	}
	for len(dst) > 0 {
		b, err := d.chunk(8, len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 8
		for i := range k {
			off := binary.LittleEndian.Uint64(b[8*i:])
			if off < uint64(d.off) || off > uint64(d.m) {
				return fmt.Errorf("graph: offsets[%d] = %d after %d: not monotone, or past the %d adjacency entries", d.next+int64(i)+1, off, d.off, d.m)
			}
			dst[i] = int64(off) - d.off
			d.off = int64(off)
		}
		d.discard(len(b))
		dst = dst[k:]
		d.next += int64(k)
	}
	return d.advance()
}

// ReadNeighbors decodes the adjacency of the next vertex into dst, which
// must be as long as that vertex's degree (ReadDegrees).
func (d *BinaryDecoder) ReadNeighbors(dst []NodeID) error { return readNeighbors(d, dst) }

// ReadNeighbors32 is ReadNeighbors onto 4-byte IDs, for a graph of at most
// 2^32 vertices, whose every neighbour, in [0, n), fits one.
func (d *BinaryDecoder) ReadNeighbors32(dst []uint32) error {
	if d.n > 1<<32 {
		return fmt.Errorf("graph: %d vertices do not fit 4-byte IDs", d.n)
	}
	return readNeighbors(d, dst)
}

func readNeighbors[T NodeID | uint32](d *BinaryDecoder, dst []T) error {
	if err := d.begin(decodingNeighbors, 1); err != nil {
		return err
	}
	if int64(len(dst)) > d.m-d.read {
		return fmt.Errorf("graph: adjacency of vertex %d reads past the %d entries", d.next, d.m)
	}
	d.read += int64(len(dst))
	var prev uint64
	for len(dst) > 0 {
		b, err := d.chunk(8, len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 8
		for i := range k {
			u := binary.LittleEndian.Uint64(b[8*i:])
			if u >= uint64(d.n) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", d.next, u)
			}
			if u < prev {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted", d.next)
			}
			dst[i], prev = T(u), u
		}
		d.discard(len(b))
		dst = dst[k:]
	}
	d.next++
	return d.advance()
}

// begin checks that a read of count vertices belongs to phase p and stays
// within the vertices.
func (d *BinaryDecoder) begin(p decodePhase, count int) error {
	if count == 0 && p != decodingNeighbors {
		return nil
	}
	if d.phase != p || int64(count) > d.n-d.next {
		return fmt.Errorf("graph: binary decoder read out of order (phase %d at vertex %d, asked for phase %d)", d.phase, d.next, p)
	}
	return nil
}

// advance moves past every phase whose vertices are all read, checking
// what a phase's end implies: the first offset when the degrees begin, the
// last when they end.
func (d *BinaryDecoder) advance() error {
	for d.phase != decoded && d.next == d.n {
		d.phase++
		d.next = 0
		switch d.phase {
		case decodingDegrees:
			b, err := d.chunk(8, 1)
			if err != nil {
				return err
			}
			if first := binary.LittleEndian.Uint64(b); first != 0 {
				return fmt.Errorf("graph: offsets[0] = %d, want 0", first)
			}
			d.discard(8)
		case decodingNeighbors:
			if d.off != d.m {
				return fmt.Errorf("graph: offsets[n] = %d, want %d", d.off, d.m)
			}
		case decoded:
			if d.read != d.m {
				return fmt.Errorf("graph: adjacency reads took %d of %d entries", d.read, d.m)
			}
		}
	}
	return nil
}

// chunk returns the next whole elements of size bytes that the read buffer
// holds — at least one, at most max — filling the buffer when it holds
// less than one. The caller decodes them in place, then discards them.
func (d *BinaryDecoder) chunk(size, max int) ([]byte, error) {
	if d.br.Buffered() < size {
		if _, err := d.br.Peek(size); err != nil {
			return nil, truncated(err)
		}
	}
	b, _ := d.br.Peek(min(d.br.Buffered()/size, max) * size)
	return b, nil
}

// discard drops k bytes that chunk returned, which the buffer holds.
func (d *BinaryDecoder) discard(k int) { _, _ = d.br.Discard(k) }

func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("graph: binary payload truncated: %w", err)
}
