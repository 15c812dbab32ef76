package memcloud

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"stwig/internal/graph"
)

// MaxMachines bounds the simulated cluster size: the planner's machine sets
// are single-word bitmasks, and a tag-table entry spends ownerBits on the
// owner. The paper's clusters have 8 and 12 machines. The cross-pair table
// spends k(k−1)/2 bits per label pair (crossPairs), so its size grows with
// the square of the cluster's.
const MaxMachines = 1 << ownerBits

// MaxLabels bounds the distinct labels a cluster holds: a tag-table entry
// has 2^labelBits label codes, and one of them is graph.NoLabel's.
const MaxLabels = 1<<labelBits - 1

// MaxNodes bounds the vertices a cluster holds: an arena entry names a
// neighbour in 4 bytes (Store). A slot is 4 bytes too, and no machine can
// hold more vertices than the cluster.
const MaxNodes = 1 << 32

const (
	ownerBits = 6
	labelBits = 32 - ownerBits
)

// labelCap is the bound a load and AddNode enforce: MaxLabels, lowered
// only by tests, which cannot intern 2^26 strings to reach it.
var labelCap = MaxLabels

// nodeCap is the vertex bound a load and AddNode enforce: MaxNodes,
// lowered only by tests, which cannot allocate 2^32 vertices to reach it.
var nodeCap int64 = MaxNodes

// Config describes a simulated cluster.
type Config struct {
	// Machines is the cluster size, in [1, MaxMachines].
	Machines int
	// Partitioner overrides the default HashPartitioner.
	Partitioner Partitioner
}

func (cfg Config) validate() error {
	if cfg.Machines < 1 || cfg.Machines > MaxMachines {
		return fmt.Errorf("memcloud: machine count %d out of range [1,%d]", cfg.Machines, MaxMachines)
	}
	if cfg.Partitioner != nil && cfg.Partitioner.Machines() != cfg.Machines {
		return fmt.Errorf("memcloud: partitioner covers %d machines, cluster has %d",
			cfg.Partitioner.Machines(), cfg.Machines)
	}
	return nil
}

// Cluster is a simulated Trinity memory cloud: a set of machines plus the
// message fabric between them. A Cluster is safe for concurrent use once
// a load (LoadGraph, LoadBinary) has returned.
type Cluster struct {
	cfg      Config
	part     Partitioner
	machines []*Machine
	// tags and slots are the address table of the unified ID space, split
	// into two parallel tables: for every v in [0, NumNodes()), tags[v] names
	// the machine that owns vertex v and v's label, and slots[v] is v's slot
	// in that machine's directory. A label check — exploration's inner loop,
	// once per neighbour — reads only the tag, so it walks a table of 4 bytes
	// per vertex instead of 8, and more of it stays in cache. The Partitioner
	// decides placement once per vertex — at load, and in AddNode for
	// vertices that arrive later — and every lookup afterwards is an array
	// read here. The tables obey the arena's discipline (update.go): queries
	// read them without locks, AddNode appends to both under upd.mu while no
	// query runs.
	tags   []cellTag
	slots  []uint32
	labels *graph.LabelTable
	cross  *crossPairs
	loaded bool
	upd    updateState
	epoch  atomic.Uint64
}

// cellTag is a vertex's tag-table entry, 4 bytes: the owner in its low
// ownerBits and the label in the rest. With the label next to the owner, a
// neighbour's label costs one read of the tag table instead of a second,
// dependent one of the owner's directory, and the same read names the
// owner a label batch charges. The label bits hold label+1: NoLabel, whose
// successor wraps to 0, owns the code 0, and decoding subtracts the 1 back
// without a branch.
type cellTag uint32

func newCellTag(owner int, label graph.LabelID) cellTag {
	return cellTag(uint32(label+1)<<ownerBits | uint32(owner))
}

func (t cellTag) owner() int { return int(t & (MaxMachines - 1)) }

func (t cellTag) label() graph.LabelID { return graph.LabelID(t.code()) - 1 }

// code is the tag's label code, label+1: 0 for NoLabel. It indexes a table
// with an entry for each label and one for NoLabel.
func (t cellTag) code() uint32 { return uint32(t >> ownerBits) }

// cellAddr is a vertex's whole address, composed from its entries in the
// two tables: the slot and the tag.
type cellAddr struct {
	slot uint32
	tag  cellTag
}

func (a cellAddr) owner() int { return a.tag.owner() }

func (a cellAddr) label() graph.LabelID { return a.tag.label() }

// locate resolves v through the address tables; ok is false for any ID
// outside [0, NumNodes()), negative ones included.
func (c *Cluster) locate(v graph.NodeID) (a cellAddr, ok bool) {
	if uint64(v) >= uint64(len(c.tags)) {
		return cellAddr{}, false
	}
	return cellAddr{slot: c.slots[v], tag: c.tags[v]}, true
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	part := cfg.Partitioner
	if part == nil {
		part = HashPartitioner{K: cfg.Machines}
	}
	c := &Cluster{cfg: cfg, part: part}
	c.machines = make([]*Machine, cfg.Machines)
	for i := range c.machines {
		c.machines[i] = &Machine{id: i, cluster: c}
	}
	return c, nil
}

// MustNewCluster is NewCluster that panics on error.
func MustNewCluster(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// LoadGraph partitions g across the machines, builds each machine's slab
// store and string index, and runs the cross-label-pair preprocessing of
// §5.3: the one table of the label pairs each pair of machines shares an
// edge between. Its duration is what Table 2 reports. It runs LoadBinary's
// loader, reading the labels, degrees and adjacency from g instead of a
// stream: the cells are copies of g's adjacency, and the cluster shares g's
// label table, which AddNode interns into.
func (c *Cluster) LoadGraph(g *graph.Graph) error {
	return c.load(&graphSource{g: g})
}

// LoadBinary loads a graph in graph.WriteBinary's format — a graph file, or
// the stream WriteSnapshot writes — straight from r in one sequential pass.
// No graph.Graph is built: each adjacency is decoded onto its owner's arena
// at its final offset, in the arena's 4-byte entries, so the load holds one
// copy of the graph, the cluster's, plus a read buffer. A malformed stream
// is an error, never a cluster (graph.BinaryDecoder makes the checks).
func (c *Cluster) LoadBinary(r io.Reader) error {
	d, err := graph.NewBinaryDecoder(r)
	if err != nil {
		return err
	}
	return c.load(d)
}

// loadSource is what a load reads a graph from, in the binary format's
// order: every vertex's label, then every vertex's degree, then each
// vertex's adjacency, in ascending vertex order (graph.BinaryDecoder). A
// file and a graph in memory differ only in where the three come from.
type loadSource interface {
	NumNodes() int64
	Labels() *graph.LabelTable
	ReadLabels(dst []graph.LabelID) error
	ReadDegrees(dst []int64) error
	// ReadNeighbors32 fills dst, as long as the next vertex's degree, with
	// its adjacency in ID order, as arena entries.
	ReadNeighbors32(dst []uint32) error
}

// graphSource reads a graph in memory as a loadSource. Each phase has its
// own cursor.
type graphSource struct {
	g                     *graph.Graph
	label, degree, nbrsOf int64
}

func (s *graphSource) NumNodes() int64           { return s.g.NumNodes() }
func (s *graphSource) Labels() *graph.LabelTable { return s.g.Labels() }

// ReadLabels rejects a label the graph's table does not name, which a
// Builder's AddNodeLabelID lets in and a snapshot could not write back.
func (s *graphSource) ReadLabels(dst []graph.LabelID) error {
	count := graph.LabelID(s.g.Labels().Len())
	for i := range dst {
		l := s.g.Label(graph.NodeID(s.label))
		if l >= count && l != graph.NoLabel {
			return fmt.Errorf("memcloud: vertex %d has label %d, but the graph's table names %d labels", s.label, l, count)
		}
		dst[i] = l
		s.label++
	}
	return nil
}

func (s *graphSource) ReadDegrees(dst []int64) error {
	for i := range dst {
		dst[i] = int64(s.g.Degree(graph.NodeID(s.degree)))
		s.degree++
	}
	return nil
}

func (s *graphSource) ReadNeighbors32(dst []uint32) error {
	for i, w := range s.g.Neighbors(graph.NodeID(s.nbrsOf)) {
		dst[i] = uint32(w)
	}
	s.nbrsOf++
	return nil
}

// loadChunk is how many labels or degrees a load reads from its source at
// a time.
const loadChunk = 4096

// load is the one loader behind LoadGraph and LoadBinary. It reads src once,
// in order, and allocates every array it keeps at its final size:
//
//  1. the labels place every vertex: its owner (asked of the partitioner
//     once), its label and its slot, in the address tables;
//  2. the degrees size every machine's directory and arena exactly and give
//     each cell its offset;
//  3. each adjacency lands on its owner's arena at that offset;
//  4. each machine indexes its labels, puts its cells above
//     labelOrderBound in (label, id) order, counts each cell's local
//     neighbours and records its cross-label pairs (§5.3).
func (c *Cluster) load(src loadSource) error {
	if c.loaded {
		return fmt.Errorf("memcloud: cluster already loaded")
	}
	labels := src.Labels()
	if l := labels.Len(); l > labelCap {
		return fmt.Errorf("memcloud: graph has %d labels, more than the %d a cluster holds", l, labelCap)
	}
	n := src.NumNodes()
	if n > nodeCap {
		return fmt.Errorf("memcloud: graph has %d vertices, more than the %d a cluster holds", n, nodeCap)
	}
	k := c.cfg.Machines

	tags := make([]cellTag, n)
	slots := make([]uint32, n)
	nodes := make([]int64, k)
	lbuf := make([]graph.LabelID, min(n, loadChunk))
	for v := int64(0); v < n; {
		chunk := lbuf[:min(n-v, loadChunk)]
		if err := src.ReadLabels(chunk); err != nil {
			return err
		}
		for _, l := range chunk {
			owner := c.part.Owner(graph.NodeID(v))
			tags[v] = newCellTag(owner, l)
			slots[v] = uint32(nodes[owner])
			nodes[owner]++
			v++
		}
	}

	dirs := make([][]cellRef, k)
	for i := range dirs {
		dirs[i] = make([]cellRef, nodes[i])
	}
	arenaWords := make([]int64, k)
	dbuf := make([]int64, min(n, loadChunk))
	for v := int64(0); v < n; {
		chunk := dbuf[:min(n-v, loadChunk)]
		if err := src.ReadDegrees(chunk); err != nil {
			return err
		}
		for _, deg := range chunk {
			if deg > math.MaxInt32 {
				return fmt.Errorf("memcloud: vertex %d has %d neighbours, more than a cell holds", v, deg)
			}
			o := tags[v].owner()
			dirs[o][slots[v]] = cellRef{off: arenaWords[o], deg: int32(deg)}
			arenaWords[o] += deg
			v++
		}
	}
	for i, m := range c.machines {
		m.store = &Store{dir: dirs[i], arena: make([]uint32, arenaWords[i])}
	}

	for v := int64(0); v < n; v++ {
		if err := src.ReadNeighbors32(c.machines[tags[v].owner()].store.neighbors(slots[v])); err != nil {
			return err
		}
	}

	// Each machine records, for each of its edges (u,w) that leaves the
	// machine, the label pair {T(u),T(w)} against the machine pair
	// {owner(u),owner(w)} — the cross-label-pair preprocessing. A run of
	// neighbours with one label is recorded as one mask of their remote
	// owners, so an ordered cell costs a record per label, not per edge.
	// The machines write the one table concurrently, in batches by region
	// (crossLoader). The same read of w's tag counts the cell's local
	// neighbours.
	// One goroutine per machine, not ParallelEach's GOMAXPROCS workers: on
	// a 2-core box this pass ran ~20 % slower on two workers (scale-18
	// R-MAT, 8 machines), and load time is the daemon's boot time.
	cross := &crossLoader{cp: newCrossPairs(k)}
	var wg sync.WaitGroup
	for _, m := range c.machines {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			m.index = newStringIndex(tags, m.id, labels.Len())
			var scratch []uint64
			batch := cross.batch(m.id, arenaWords[m.id])
			for v, t := range tags {
				if t.owner() != m.id {
					continue
				}
				cell := m.store.neighbors(slots[v])
				if labelOrdered(len(cell)) {
					scratch = orderByLabel(cell, tags, scratch)
				}
				var local int32
				var remote uint64 // owners of the run of neighbours labelled like w
				for i, w := range cell {
					tw := tags[w]
					if o := tw.owner(); o == m.id {
						local++
					} else {
						remote |= 1 << o
					}
					if i+1 == len(cell) || tags[cell[i+1]].label() != tw.label() {
						if remote != 0 {
							batch.add(t.label(), tw.label(), remote)
							remote = 0
						}
					}
				}
				m.store.dir[slots[v]].local = local
			}
			batch.close()
		}(m)
	}
	wg.Wait()

	c.tags, c.slots = tags, slots
	c.cross = cross.cp
	c.labels = labels
	c.loaded = true
	return nil
}

// NumMachines returns the cluster size.
func (c *Cluster) NumMachines() int { return c.cfg.Machines }

// Epoch returns the cluster's mutation epoch: it increases with every
// dynamic update (AddNode, AddEdge, RemoveEdge), each of which may change
// the statistics a query plan is derived from — label frequencies, the label
// table, or the cross-pair table. A plan records the epoch it was
// built at, and recovery restores it (RestoreEpoch).
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// NumNodes returns the total vertex count across machines, including
// vertices added after load. Vertex IDs are dense in [0, NumNodes()). It
// takes the update lock, so it is safe beside updates, and waits for a
// writer that holds it — a checkpoint's whole WriteSnapshot included. The
// query path reads QueryNumNodes instead.
func (c *Cluster) NumNodes() int64 {
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return int64(len(c.tags))
}

// QueryNumNodes is NumNodes read the way a query reads the address tables:
// without a lock, under the arena's discipline (update.go) — no update runs
// while a query does. So a query never waits for a writer that holds the
// update lock without mutating, such as a checkpoint.
func (c *Cluster) QueryNumNodes() int64 { return int64(len(c.tags)) }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Owner returns the machine index owning vertex v, or -1 when v does not
// exist.
func (c *Cluster) Owner(v graph.NodeID) int {
	a, ok := c.locate(v)
	if !ok {
		return -1
	}
	return a.owner()
}

// Labels returns the label table of the loaded graph, or nil before load.
func (c *Cluster) Labels() *graph.LabelTable { return c.labels }

// CrossAdj ORs into adj, a bitmask per machine, the machine pairs that an
// edge labelled {la, lb} joins: for every such edge with an end on machine
// i and the other on machine j ≠ i, bit j of adj[i] and bit i of adj[j].
// This is the stored label-pair information §5.3 uses to build a
// query-specific cluster graph without touching the data graph. Edges
// inside one machine set nothing. Removed edges may leave their bits set.
func (c *Cluster) CrossAdj(la, lb graph.LabelID, adj []uint64) {
	c.cross.adjacency(la, lb, adj)
}

// TotalMemoryBytes reports resident bytes across the cluster: the address
// tables once, the cross-pair table, and every machine's store and string
// index. Reported in the Table 1 reproduction. It takes the update lock:
// the walk reads slice headers and posting-list maps that dynamic updates
// mutate, and observability callers (Engine.Snapshot, the daemon's GET
// /stats) run concurrently with updates.
func (c *Cluster) TotalMemoryBytes() int64 {
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	total := int64(cap(c.tags))*int64(unsafe.Sizeof(cellTag(0))) +
		int64(cap(c.slots))*int64(unsafe.Sizeof(uint32(0))) +
		c.cross.memoryBytes()
	for _, m := range c.machines {
		total += m.store.memoryBytes() + m.index.memoryBytes()
	}
	return total
}

// StringIndexBytes estimates the total size of all machines' string
// indexes, the only index the system builds over vertices; the other
// preprocessing is §5.3's cross-pair table, which TotalMemoryBytes counts
// too. Like TotalMemoryBytes, it locks out concurrent updates.
func (c *Cluster) StringIndexBytes() int64 {
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	var total int64
	for _, m := range c.machines {
		total += m.index.memoryBytes()
	}
	return total
}

// ParallelEach runs fn once for every machine and waits for all of them. It
// is the execution primitive for the paper's "each machine performs
// Algorithm 1 ... in parallel": min(GOMAXPROCS, machines) workers claim
// machines from a shared counter until none is left, and the caller only
// waits. A query phase is short: a goroutine per machine would charge it
// their start-up, stack growth and scheduling, and no more than GOMAXPROCS
// of them can run at once anyway. So the workers outlive the phase: the
// phase goes to workers parked by earlier phases of any cluster, and a
// goroutine is started only when no worker is parked. A worker keeps the
// stack it grew in fn from phase to phase. Calls for different
// machines may run concurrently and in any order, and one must never wait
// for another. A worker reads the clock before its first machine; fn gets
// the reading its machine starts at and returns the one that ends it.
func (c *Cluster) ParallelEach(fn func(m *Machine, start time.Time) (end time.Time)) {
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, len(c.machines))
	p := phases.Get().(*phase)
	p.machines, p.fn, p.procs = c.machines, fn, procs
	p.next.Store(0)
	p.wg.Add(workers)
	// A wake channel's one slot is empty while its worker is parked, so the
	// hand-off never waits: not for a worker still on its way to the
	// receive, nor for one blocked in another phase's fn.
	parked.mu.Lock()
	for ; workers > 0 && len(parked.wake) > 0; workers-- {
		last := len(parked.wake) - 1
		parked.wake[last] <- p
		parked.wake[last] = nil
		parked.wake = parked.wake[:last]
	}
	parked.mu.Unlock()
	for range workers {
		go work(p)
	}
	p.wg.Wait()
	p.machines, p.fn = nil, nil
	phases.Put(p)
}

// phase is one ParallelEach call, shared by its workers. Phases are pooled:
// once the caller's Wait returns, no worker touches its phase again.
type phase struct {
	machines []*Machine
	fn       func(m *Machine, start time.Time) (end time.Time)
	next     atomic.Int32 // the claim counter
	procs    int          // GOMAXPROCS when the phase began: the parking bound
	wg       sync.WaitGroup
}

var phases = sync.Pool{New: func() any { return new(phase) }}

// parked holds the wake channels of the workers waiting for a phase,
// process-wide; the most recently parked worker is taken first.
var parked struct {
	mu   sync.Mutex
	wake []chan *phase
}

// ParkedWorkers returns how many ParallelEach workers are parked between
// phases: at most GOMAXPROCS, and no leak. Goroutine-leak checks subtract
// it.
func ParkedWorkers() int {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	return len(parked.wake)
}

// work is a worker's life: it runs p, then every phase handed to it while
// it was parked, and exits when it finds GOMAXPROCS workers parked already.
func work(p *phase) {
	wake := make(chan *phase, 1)
	for p.run(wake) {
		p = <-wake
	}
}

// run claims machines of p until none is left, and reports whether the
// worker parked. It parks before it leaves the phase's barrier, so the
// caller's next phase finds it parked.
func (p *phase) run(wake chan *phase) bool {
	start := time.Now()
	for i := int(p.next.Add(1)) - 1; i < len(p.machines); i = int(p.next.Add(1)) - 1 {
		start = p.fn(p.machines[i], start)
	}
	parked.mu.Lock()
	park := len(parked.wake) < p.procs
	if park {
		parked.wake = append(parked.wake, wake)
	}
	parked.mu.Unlock()
	p.wg.Done()
	return park
}

// charge books messages messages carrying words payload words in all to net.
func (c *Cluster) charge(net *NetStats, messages, words int) {
	net.Add(NetStats{Messages: uint64(messages), Bytes: payloadSize(messages, words)})
}

// Cell returns the cell of vertex id wherever it lives, and false when id
// does not exist. It is a read of the simulation, not of the modelled
// fabric: nothing is charged, which is what verification (VerifyMatch) and
// tests want. Neighbors aliases the owner's arena; callers must not modify
// it.
func (c *Cluster) Cell(id graph.NodeID) (Cell, bool) {
	a, ok := c.locate(id)
	if !ok {
		return Cell{}, false
	}
	return c.cell(id, a), true
}

// cell assembles the Cell of vertex id from its address. Neighbors
// aliases the owner's arena.
func (c *Cluster) cell(id graph.NodeID, a cellAddr) Cell {
	s := c.machines[a.owner()].store
	ref := s.dir[a.slot]
	return Cell{ID: id, Label: a.label(), local: ref.local, Neighbors: s.arena[ref.off : ref.off+int64(ref.deg)]}
}

// LabelBatch charges the label checks one machine makes over any number of
// cells as ONE batch when Flush is called: one message per remote owner
// touched, carrying one word per neighbour asked of it. This models
// Trinity's message merging / batch transmission (§2.2); the matcher keeps
// one LabelBatch per STwig step, so a step costs at most machines-1
// messages however many cells it inspects. The charge follows the cells
// the step loaded (Charge), not the labels it happened to read: a label
// found by binary search in an ordered hub cell costs what a scan of the
// cell would. The zero value is not usable; obtain one from
// Machine.LabelBatch.
type LabelBatch struct {
	c    *Cluster
	tags []cellTag // c.tags, which no update moves while the batch is in use
	from int
	// others has a bit for every machine but from.
	others uint64
	// net is the caller's accumulator Flush charges.
	net *NetStats
	// touched marks the remote owners charged so far, and words counts
	// their IDs: one word per remote ID, since the request direction
	// carries the 8-byte vertex ID and the (smaller) label response rides
	// the full-duplex return path. The wire model is affine, so the total
	// prices every owner's message.
	touched uint64
	words   int
}

// Label returns the label of vertex id, read straight from the tag table
// — one 4-byte read. It charges nothing: Charge books a loaded cell's
// reads. An ID outside [0, NumNodes()), negative ones included, reads
// graph.NoLabel.
func (b *LabelBatch) Label(id graph.NodeID) graph.LabelID {
	if uint64(id) >= uint64(len(b.tags)) {
		return graph.NoLabel
	}
	return b.tags[id].label()
}

// Charge books the label check of every neighbour of cell, which must be
// one of the batch machine's own cells (Machine.LoadLocal): a word against
// the owner of each neighbour held elsewhere. That is len − local words; the
// tags are read only until every remote owner the cell touches is marked,
// and not at all once the batch has marked every other machine.
func (b *LabelBatch) Charge(cell Cell) {
	remote := len(cell.Neighbors) - int(cell.local)
	b.words += remote
	for _, nb := range cell.Neighbors {
		if remote == 0 || b.touched == b.others {
			return
		}
		if o := b.tags[nb].owner(); o != b.from {
			b.touched |= 1 << o
			remote--
		}
	}
}

// Flush charges the batch to the NetStats it was started with — one
// message per remote owner touched — and resets it for reuse.
func (b *LabelBatch) Flush() {
	if b.touched != 0 {
		b.c.charge(b.net, bits.OnesCount64(b.touched), b.words)
	}
	b.touched, b.words = 0, 0
}

// ShipWords charges net an application-level transfer of the given number
// of 8-byte words from machine `from` to machine `to` (used by the join
// phase when machines exchange STwig results). No-op when from == to.
func (c *Cluster) ShipWords(net *NetStats, from, to, words int) {
	if from == to {
		return
	}
	c.charge(net, 1, words)
}

// AccountProxyTransfer charges net one message of the given payload words
// between a machine and the query proxy (which is not itself a cluster
// machine). The executor uses it for the plan broadcast and the binding
// synchronization.
func (c *Cluster) AccountProxyTransfer(net *NetStats, words int) {
	c.charge(net, 1, words)
}

// GlobalLabelCount sums Index.Count over machines: the number of vertices
// in the whole graph carrying the label. Used by f-value computation
// (§5.2); in a real deployment this per-label count is a byproduct of index
// construction, so no communication is charged.
func (c *Cluster) GlobalLabelCount(label graph.LabelID) int64 {
	var total int64
	for _, m := range c.machines {
		total += int64(m.index.Count(label))
	}
	return total
}
