package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/workload"
)

// spec is one workload's shape. Everything the daemon later sees — the graph
// file and the request list — is derived from it and the seed alone.
type spec struct {
	name string
	// R-MAT graph: 2^scale vertices, average degree 8, labels labels.
	scale, labels int
	// qsize is the vertex count of the seeded DFS queries; genOps of them
	// are drawn from the seed and the first ops are replayed, so two specs
	// sharing the generation fields share a list prefix.
	qsize, genOps, ops int
	// Drawn queries are kept by their oracle match count: the band
	// bandLo..bandHi is cut into strata equal slices and each slice holds
	// genOps/strata queries, dealt round-robin so every prefix of the list
	// is balanced too. A streaming query's latency is proportional to its
	// match count, which spreads over an order of magnitude across random
	// DFS queries; left unstratified, the list's median moved by a quarter
	// from seed to seed and drowned every real change.
	bandLo, bandHi, strata int
	// cluster serves the list through a coordinator and two shards.
	cluster bool
	// rw turns each query into a round of add_edge, query, remove_edge and
	// boots the daemon with -data-dir (journal, fsync, checkpoints).
	rw bool
}

// minPasses is the fewest timed passes a floor is taken over.
const minPasses = 12

// specs are the four workloads; BENCHMARK.json and README.md say why each
// exists. Sizes give a pass of 0.3-0.8 s on the 2-vCPU reference box.
var specs = []spec{
	{
		name:  "explore_direct",
		scale: 18, labels: 1024, qsize: 5, genOps: 120, ops: 120, bandLo: 6, bandHi: 21, strata: 4,
	},
	{
		name:  "stream_direct",
		scale: 16, labels: 64, qsize: 4, genOps: 100, ops: 100, bandLo: 4000, bandHi: 5999, strata: 10,
	},
	{
		name:  "stream_cluster",
		scale: 16, labels: 64, qsize: 4, genOps: 100, ops: 40, bandLo: 4000, bandHi: 5999, strata: 10, cluster: true,
	},
	{
		name:  "mixed_rw",
		scale: 18, labels: 1024, qsize: 5, genOps: 128, ops: 128, bandLo: 6, bandHi: 21, strata: 4, rw: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opQuery opKind = iota
	opAddEdge
	opRemoveEdge
)

// op is one request of a workload's fixed list together with the answer the
// oracle expects for it.
type op struct {
	kind opKind
	// body is the JSON request body, req the whole prebuilt HTTP/1.1 request
	// the timed client writes verbatim.
	body []byte
	req  []byte
	// pattern and query are set on query ops; mut on update ops.
	pattern string
	query   *core.Query
	mut     memcloud.Mutation
	// wantMatches and wantHash are the oracle's answer for a query op.
	wantMatches int
	wantHash    uint64
}

func (o *op) isQuery() bool { return o.kind == opQuery }

// clientSpan names the op's outermost traced depth.
func (o *op) clientSpan() string {
	if o.isQuery() {
		return "client.query"
	}
	return "client.update"
}

// workloadData is a generated workload: the graph file handed to stwigd via
// -graph, the operation list, and the in-process engine the expectations came
// from (kept for the traced depths).
type workloadData struct {
	spec spec
	// dir holds the workload's files: the graph, and whatever data dirs
	// and journals a run creates for it.
	dir       string
	graphFile string
	ops       []op
	oracle    *core.Engine
	// genSeconds is harness-side generation time (graph + file), reported
	// as graph.gen_s and excluded from setup_s.
	genSeconds float64
}

func (w *workloadData) queryCount() int {
	n := 0
	for i := range w.ops {
		if w.ops[i].isQuery() {
			n++
		}
	}
	return n
}

// hashAssignment is a 64-bit hash of one match. A query's answer hash is the
// wrapping sum over its matches, so it does not depend on emission order
// (the parallel join and the coordinator's merge both reorder matches).
func hashAssignment[T ~int64](a []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range a {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// oracleAnswer runs q on the in-process engine and returns its match count
// and order-independent hash.
func oracleAnswer(eng *core.Engine, q *core.Query) (int, uint64, error) {
	n, hash := 0, uint64(0)
	_, err := eng.MatchStreamBlocks(context.Background(), q, func(ms []core.Match) (int, bool) {
		for _, m := range ms {
			hash += hashAssignment(m.Assignment)
		}
		n += len(ms)
		return len(ms), true
	})
	return n, hash, err
}

// httpRequest serializes a JSON POST exactly as the timed client will write
// it, so the timed loop does no request building.
func httpRequest(path string, body []byte) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: stwigd.bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

func queryOp(q *core.Query) (op, error) {
	p := pattern.Format(q)
	body, err := json.Marshal(server.QueryRequest{Pattern: p})
	if err != nil {
		return op{}, err
	}
	return op{kind: opQuery, body: body, req: httpRequest("/v1/query", body), pattern: p, query: q}, nil
}

func edgeOp(kind opKind, u, v graph.NodeID) (op, error) {
	name, mop := server.OpAddEdge, memcloud.MutAddEdge
	if kind == opRemoveEdge {
		name, mop = server.OpRemoveEdge, memcloud.MutRemoveEdge
	}
	body, err := json.Marshal(server.UpdateRequest{Op: name, U: int64(u), V: int64(v)})
	if err != nil {
		return op{}, err
	}
	return op{kind: kind, body: body, req: httpRequest("/v1/update", body), mut: memcloud.Mutation{Op: mop, U: u, V: v}}, nil
}

// graphSeed generates every workload's data graph. The graph is the dataset —
// part of the workload's definition, like a scale factor — and the run's seed
// draws the operations on it. R-MAT graphs of one size but different seeds
// differ by ±5% in per-query exploration cost (hub placement across the
// partitions), which a per-run graph would add to every latency's spread.
const graphSeed = 20120827 // the paper's VLDB session

// generate builds sp's inputs under dir: the R-MAT graph file, the operation
// list drawn from seed, and the oracle's expected answer for every query.
func generate(sp spec, seed int64, dir string) (*workloadData, error) {
	start := time.Now()
	g, err := rmat.Generate(rmat.Params{Scale: sp.scale, AvgDegree: 8, NumLabels: sp.labels, Seed: graphSeed})
	if err != nil {
		return nil, err
	}
	w := &workloadData{spec: sp, dir: dir, graphFile: filepath.Join(dir, "graph.bin")}
	if err := writeGraph(w.graphFile, g); err != nil {
		return nil, err
	}
	w.genSeconds = time.Since(start).Seconds()

	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: daemonMachines})
	if err != nil {
		return nil, err
	}
	if err := cluster.LoadGraph(g); err != nil {
		return nil, err
	}
	w.oracle = core.NewEngine(cluster, core.Options{})

	rng := rand.New(rand.NewSource(seed))
	queries, err := drawQueries(sp, g, w.oracle, rng)
	if err != nil {
		return nil, err
	}
	for _, q := range queries[:sp.ops] {
		qo, err := queryOp(q)
		if err != nil {
			return nil, err
		}
		if !sp.rw {
			w.ops = append(w.ops, qo)
			continue
		}
		// A round adds an edge the graph lacks and removes it again, so
		// the graph is the same at the end of every round and pass.
		var u, v graph.NodeID
		for u == v || g.HasEdge(u, v) {
			u, v = graph.NodeID(rng.Int63n(g.NumNodes())), graph.NodeID(rng.Int63n(g.NumNodes()))
		}
		add, err := edgeOp(opAddEdge, u, v)
		if err != nil {
			return nil, err
		}
		remove, err := edgeOp(opRemoveEdge, u, v)
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, add, qo, remove)
	}
	return w, w.expect()
}

// drawQueries draws seeded DFS queries until every stratum of the match band
// holds its share, and deals them round-robin across the strata.
func drawQueries(sp spec, g *graph.Graph, oracle *core.Engine, rng *rand.Rand) ([]*core.Query, error) {
	quota := sp.genOps / sp.strata
	width := (sp.bandHi - sp.bandLo + sp.strata) / sp.strata
	strata := make([][]*core.Query, sp.strata)
	for full, attempts := 0, 0; full < sp.strata; attempts++ {
		if attempts > 200*sp.genOps {
			return nil, fmt.Errorf("%s: match band [%d,%d] not filled after %d draws", sp.name, sp.bandLo, sp.bandHi, attempts)
		}
		q, err := workload.DFSQuery(g, sp.qsize, rng)
		if err != nil {
			return nil, err
		}
		// Counting stops one past the band: how far beyond it a query lies
		// does not matter.
		n := 0
		if _, err := oracle.MatchStreamBlocks(context.Background(), q, func(ms []core.Match) (int, bool) {
			n += len(ms)
			return len(ms), n <= sp.bandHi
		}); err != nil {
			return nil, err
		}
		if n < sp.bandLo || n > sp.bandHi {
			continue
		}
		if s := (n - sp.bandLo) / width; len(strata[s]) < quota {
			if strata[s] = append(strata[s], q); len(strata[s]) == quota {
				full++
			}
		}
	}
	queries := make([]*core.Query, 0, sp.genOps)
	for j := 0; j < sp.genOps; j++ {
		queries = append(queries, strata[j%sp.strata][j/sp.strata])
	}
	return queries, nil
}

// expect walks the list once on the oracle, applying the update ops, and
// records every query's expected answer.
func (w *workloadData) expect() error {
	cluster := w.oracle.Cluster()
	for i := range w.ops {
		o := &w.ops[i]
		if !o.isQuery() {
			if res := cluster.ApplyBatch([]memcloud.Mutation{o.mut}); res[0].Err != nil {
				return fmt.Errorf("%s: oracle update %d: %w", w.spec.name, i, res[0].Err)
			}
			continue
		}
		var err error
		if o.wantMatches, o.wantHash, err = oracleAnswer(w.oracle, o.query); err != nil {
			return fmt.Errorf("%s: oracle query %d: %w", w.spec.name, i, err)
		}
	}
	return nil
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
