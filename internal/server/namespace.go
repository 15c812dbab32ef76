package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
	"stwig/internal/workload"
)

// namespace is one tenant's complete serving state: its own engine (and
// therefore cluster and counters), its own admission gate and
// limits, its own endpoint metrics, and its own single-writer update lock.
// Nothing here is shared across tenants, which is the isolation property
// the multi-tenant tests pin: a tenant saturating its admission budget or
// parking a writer cannot touch another tenant's traffic.
type namespace struct {
	name    string
	eng     *core.Engine
	cfg     Config // normalized per-tenant limits
	adm     *admission
	met     *metrics
	created time.Time

	// gate enforces memcloud's single-writer / quiesced-reader update
	// discipline at the service boundary for this tenant only: queries and
	// explains hold the read side for their full execution; pipe's
	// dispatcher is the gate's only writer. The gate is writer-priority
	// with an epoch cutoff (see updatequeue.go), so a steady reader stream
	// can no longer starve this tenant's own updates forever.
	gate *updateGate
	// pipe is the tenant's update pipeline: a bounded FIFO of mutations
	// drained by one dispatcher goroutine that batch-applies them under a
	// single writer window per batch.
	pipe *updatePipeline
	// store is the tenant's durable state (journal + checkpoints); nil when
	// the server runs without a data dir or the namespace was registered
	// engine-first (AddNamespace) rather than from a spec.
	store *nsStorage
}

func newNamespace(name string, eng *core.Engine, cfg Config, store *nsStorage) *namespace {
	cfg = cfg.normalize()
	gate := newUpdateGate()
	return &namespace{
		name:    name,
		eng:     eng,
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInFlight),
		met:     newMetrics(),
		created: time.Now(),
		gate:    gate,
		pipe:    newUpdatePipeline(eng, gate, cfg, store),
		store:   store,
	}
}

// close stops the namespace's update dispatcher; still-queued updates fail
// with 503. In-flight queries are unaffected (the gate stays functional).
// The journal is closed only after pipe.close has waited the dispatcher
// out, so no append can race the file close. Idempotent and safe to call
// concurrently (Server.Close vs DropNamespace).
func (ns *namespace) close() {
	ns.pipe.close()
	if ns.store != nil {
		ns.store.close()
	}
}

// info snapshots the namespace for the admin surfaces.
func (ns *namespace) info() NamespaceInfo {
	snap := ns.eng.Snapshot()
	return NamespaceInfo{
		Name:       ns.name,
		AgeSeconds: time.Since(ns.created).Seconds(),
		Graph: GraphInfo{
			Nodes:       snap.Nodes,
			Machines:    snap.Machines,
			Epoch:       snap.Epoch,
			MemoryBytes: snap.MemoryBytes,
		},
		Admission: ns.adm.stats(),
		Limits: NamespaceLimits{
			MaxInFlight: ns.cfg.MaxInFlight,
			MaxMatches:  ns.cfg.MaxMatches,
			MaxBytes:    ns.cfg.MaxBytes,
		},
	}
}

// registry is the server's live name → namespace map. Reads (every routed
// request) take the read lock only; create/drop take the write lock. A
// dropped namespace's in-flight requests keep their *namespace and finish
// normally — only new lookups see the 404.
type registry struct {
	mu sync.RWMutex
	m  map[string]*namespace
	// closed is set by Server.Close (under the write lock) so a create
	// racing the close cannot register a namespace whose dispatcher nobody
	// would ever stop — the goroutine leak TestServerCloseDrainThenClose
	// caught.
	closed bool
}

func newRegistry() *registry { return &registry{m: make(map[string]*namespace)} }

func (r *registry) get(name string) (*namespace, bool) {
	r.mu.RLock()
	ns, ok := r.m[name]
	r.mu.RUnlock()
	return ns, ok
}

// ErrNamespaceExists reports a create colliding with a live namespace;
// the admin endpoint maps it to 409.
var ErrNamespaceExists = errors.New("namespace already exists")

// ErrServerClosed reports a namespace operation against a server whose
// Close has run.
var ErrServerClosed = errors.New("server closed")

// add registers ns. A positive maxTotal enforces the registry ceiling
// atomically under the write lock (runtime creates); 0 is uncapped (boot).
func (r *registry) add(ns *namespace, maxTotal int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("server: namespace %q: %w", ns.name, ErrServerClosed)
	}
	if _, dup := r.m[ns.name]; dup {
		return fmt.Errorf("server: namespace %q: %w", ns.name, ErrNamespaceExists)
	}
	if maxTotal > 0 && len(r.m) >= maxTotal {
		return fmt.Errorf("server: %w (%d live; drop one first)", ErrNamespaceCapacity, maxTotal)
	}
	r.m[ns.name] = ns
	return nil
}

// seal marks the registry closed and returns the live namespaces for
// shutdown. After seal, add refuses and the Close/create race is gone.
func (r *registry) seal() []*namespace {
	r.mu.Lock()
	r.closed = true
	out := make([]*namespace, 0, len(r.m))
	for _, ns := range r.m {
		out = append(out, ns)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *registry) remove(name string) (*namespace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns, ok := r.m[name]
	if ok {
		delete(r.m, name)
	}
	return ns, ok
}

func (r *registry) size() int {
	r.mu.RLock()
	n := len(r.m)
	r.mu.RUnlock()
	return n
}

func (r *registry) list() []*namespace {
	r.mu.RLock()
	out := make([]*namespace, 0, len(r.m))
	for _, ns := range r.m {
		out = append(out, ns)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Build materializes the spec: load or generate its graph onto a fresh
// simulated cluster, and wrap an engine around it. This is the expensive
// part of namespace creation and runs without any registry lock held.
func (spec NamespaceSpec) Build() (*core.Engine, error) {
	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: spec.Machines})
	if err == nil {
		err = spec.load(cluster)
	}
	if err != nil {
		return nil, fmt.Errorf("server: namespace %q: %w", spec.Name, err)
	}
	return core.NewEngine(cluster, core.Options{}), nil
}

// load fills cluster from the spec's source. A binary file streams straight
// onto the cluster (LoadBinary), so boot holds one copy of the graph; only
// relabel=degree, which relabels from the whole graph's degrees, builds the
// graph in memory first.
func (spec NamespaceSpec) load(cluster *memcloud.Cluster) error {
	if spec.Source == "file" && spec.Relabel != "degree" {
		f, err := os.Open(spec.Path)
		if err != nil {
			return err
		}
		defer f.Close()
		return cluster.LoadBinary(f)
	}
	g, err := spec.graph()
	if err != nil {
		return err
	}
	if spec.Relabel == "degree" {
		g = workload.RelabelByDegree(g, 100, 2)
	}
	return cluster.LoadGraph(g)
}

// graph generates or reads the spec's graph into memory.
func (spec NamespaceSpec) graph() (*graph.Graph, error) {
	switch spec.Source {
	case "rmat":
		return rmat.Generate(rmat.Params{
			Scale:     spec.Scale,
			AvgDegree: spec.Degree,
			NumLabels: spec.Labels,
			Seed:      spec.Seed,
		})
	case "file", "text":
		f, err := os.Open(spec.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if spec.Source == "text" {
			return graph.ReadText(f, graph.Undirected())
		}
		return graph.ReadBinary(f)
	}
	return nil, fmt.Errorf("unknown source kind %q", spec.Source)
}

// Guardrails for namespaces created over the network (POST /ns). Boot-time
// -ns flags and programmatic AddNamespaceSpec are operator-controlled and
// not subject to them.
const (
	// maxRuntimeRMATScale caps runtime R-MAT generation at 2^20 ≈ 1M
	// nodes: one unauthenticated create must not be able to OOM the
	// process and take every tenant down with it.
	maxRuntimeRMATScale = 20
	// maxRuntimeRMATDegree bounds the edge count of a runtime graph.
	maxRuntimeRMATDegree = 32
	// maxRuntimeMachines bounds per-tenant simulated cluster size.
	maxRuntimeMachines = 64
	// maxRuntimeRMATLabels bounds the label alphabet: label arrays and the
	// string index scale with it, so it is memory like scale is.
	maxRuntimeRMATLabels = 4096
	// maxRuntimeInFlight bounds a runtime tenant's admission budget: an
	// unauthenticated create must not be able to grant itself effectively
	// unlimited concurrency and defeat admission control process-wide.
	maxRuntimeInFlight = 64
	// maxRuntimeNamespaces bounds the registry for runtime creates: each
	// tenant holds a whole graph, so per-create caps alone still let a
	// loop of creates exhaust memory. Only POST /ns is refused at the
	// ceiling; boot-time tenants are always admitted but do consume the
	// runtime headroom (the registry size is one shared ledger).
	maxRuntimeNamespaces = 64
)

// ErrNamespaceCapacity reports the runtime namespace ceiling; the admin
// endpoint maps it to 429.
var ErrNamespaceCapacity = errors.New("namespace capacity reached")

// checkRuntimeSpec enforces the runtime-creation guardrails: bounded R-MAT
// size, bounded cluster size, and file/text sources confined to the
// operator-configured NamespaceRoot (disabled entirely when no root is
// set), so a network client can neither exhaust memory nor probe the
// daemon's filesystem. The returned spec is what Build must materialize:
// for file/text sources its Path is rewritten to the symlink-resolved
// form, so the file later opened is the one that was checked — not
// whatever a link swapped in underneath the original path afterwards.
func (s *Server) checkRuntimeSpec(spec NamespaceSpec) (NamespaceSpec, error) {
	// Fast-fail before paying for a build; registry.add re-checks the
	// ceiling atomically under its lock, so concurrent creates that both
	// pass here still cannot exceed it.
	if s.reg.size() >= maxRuntimeNamespaces {
		return spec, fmt.Errorf("server: %w (%d live; drop one first)", ErrNamespaceCapacity, maxRuntimeNamespaces)
	}
	if spec.Machines > maxRuntimeMachines {
		return spec, fmt.Errorf("server: namespace %q: machines=%d exceeds the runtime-create cap %d", spec.Name, spec.Machines, maxRuntimeMachines)
	}
	if spec.MaxInFlight > maxRuntimeInFlight {
		return spec, fmt.Errorf("server: namespace %q: inflight=%d exceeds the runtime-create cap %d", spec.Name, spec.MaxInFlight, maxRuntimeInFlight)
	}
	// Override caps may only tighten the operator's server-wide limits,
	// never loosen them (a zero server cap means unlimited and stays open).
	if s.cfg.MaxMatches > 0 && spec.MaxMatches > s.cfg.MaxMatches {
		return spec, fmt.Errorf("server: namespace %q: maxmatches=%d exceeds the server cap %d", spec.Name, spec.MaxMatches, s.cfg.MaxMatches)
	}
	if s.cfg.MaxBytes > 0 && spec.MaxBytes > s.cfg.MaxBytes {
		return spec, fmt.Errorf("server: namespace %q: maxbytes=%d exceeds the server cap %d", spec.Name, spec.MaxBytes, s.cfg.MaxBytes)
	}
	switch spec.Source {
	case "rmat":
		if spec.Scale > maxRuntimeRMATScale {
			return spec, fmt.Errorf("server: namespace %q: scale=%d exceeds the runtime-create cap %d", spec.Name, spec.Scale, maxRuntimeRMATScale)
		}
		if spec.Degree > maxRuntimeRMATDegree {
			return spec, fmt.Errorf("server: namespace %q: degree=%d exceeds the runtime-create cap %d", spec.Name, spec.Degree, maxRuntimeRMATDegree)
		}
		if spec.Labels > maxRuntimeRMATLabels {
			return spec, fmt.Errorf("server: namespace %q: labels=%d exceeds the runtime-create cap %d", spec.Name, spec.Labels, maxRuntimeRMATLabels)
		}
		return spec, nil
	default: // file, text
		if s.cfg.NamespaceRoot == "" {
			return spec, fmt.Errorf("server: namespace %q: file/text sources are disabled over the admin API (start stwigd with -ns-root DIR to enable them)", spec.Name)
		}
		root, err := filepath.Abs(s.cfg.NamespaceRoot)
		if err != nil {
			return spec, fmt.Errorf("server: namespace root: %w", err)
		}
		p, err := filepath.Abs(spec.Path)
		if err != nil {
			return spec, fmt.Errorf("server: namespace %q: %w", spec.Name, err)
		}
		// Lexical confinement first (Abs implies Clean, so ".." is
		// resolved): a path that does not even point under the root is
		// refused before touching the filesystem.
		if !pathWithin(p, root) {
			return spec, fmt.Errorf("server: namespace %q: path %q is outside the namespace root", spec.Name, spec.Path)
		}
		// Then physical confinement: resolve symlinks on both sides so a
		// link planted inside the root cannot alias a file outside it. The
		// root itself may legitimately sit behind a symlink (/var → /run
		// style), which is why it is resolved too. The file must exist to
		// be loadable, so a resolution failure here is the same client
		// typo an open(2) would report.
		realRoot, err := filepath.EvalSymlinks(root)
		if err != nil {
			return spec, fmt.Errorf("server: namespace root %q: %w", s.cfg.NamespaceRoot, err)
		}
		realPath, err := filepath.EvalSymlinks(p)
		if err != nil {
			return spec, fmt.Errorf("server: namespace %q: %w", spec.Name, err)
		}
		if !pathWithin(realPath, realRoot) {
			return spec, fmt.Errorf("server: namespace %q: path %q resolves outside the namespace root", spec.Name, spec.Path)
		}
		// Build opens the resolved path, so a symlink swapped in at the
		// original path between this check and the open (the build may sit
		// behind buildSem for a while) cannot redirect the load. Directory
		// components of the resolved path could in principle still be
		// re-linked; closing that fully needs os.Root-style traversal,
		// which the Go 1.23 floor rules out for now.
		spec.Path = realPath
		return spec, nil
	}
}

// pathWithin reports whether p is root itself or lies under it. Both must
// already be absolute and cleaned.
func pathWithin(p, root string) bool {
	return p == root || strings.HasPrefix(p, root+string(filepath.Separator))
}

// AddNamespace registers eng under name. cfg overrides the server's limits
// for this tenant; nil inherits them. The engine (and its cluster) must
// already be loaded. Safe to call while the server is handling requests.
// Engine-first namespaces are NOT persisted even when the server has a
// data dir: there is no spec to record, so they cannot be re-created at
// boot — use AddNamespaceSpec for durable tenants.
func (s *Server) AddNamespace(name string, eng *core.Engine, cfg *Config) error {
	if err := ValidateNamespaceName(name); err != nil {
		return err
	}
	nsCfg := s.cfg
	if cfg != nil {
		nsCfg = *cfg
		if err := nsCfg.Validate(); err != nil {
			return err
		}
	}
	ns := newNamespace(name, eng, nsCfg, nil)
	if err := s.reg.add(ns, 0); err != nil {
		ns.close()
		return err
	}
	return nil
}

// AddNamespaceSpec materializes spec (possibly loading a graph file or
// generating an R-MAT graph) and registers the result. The build happens
// outside the registry lock, so live traffic on other tenants is never
// stalled by a slow creation.
func (s *Server) AddNamespaceSpec(spec NamespaceSpec) error {
	return s.addNamespaceSpec(spec, 0)
}

// addNamespaceSpec is AddNamespaceSpec with an optional registry ceiling
// (positive maxTotal), enforced atomically at add time — the runtime admin
// path passes maxRuntimeNamespaces, boot paths pass 0. With a data dir the
// namespace is recorded durably: boot re-runs of a spec already recovered
// from the manifest are a no-op, and a boot spec that CONTRADICTS the
// persisted one is refused rather than silently shadowing recovered data.
func (s *Server) addNamespaceSpec(spec NamespaceSpec, maxTotal int) error {
	if err := ValidateNamespaceName(spec.Name); err != nil {
		return err
	}
	if s.store != nil {
		// Serialize against same-name creates and drops for the whole
		// persisted create: without this, a twin create (or a drop racing a
		// re-create) could RemoveAll the directory the winner's journal is
		// already fsyncing into, silently losing acknowledged updates.
		unlock := s.store.lockName(spec.Name)
		defer unlock()
		// The manifest stores SpecString and recovery re-parses it, so a
		// spec that does not round-trip (e.g. a -graph path containing a
		// comma, which the grammar cannot carry) must be refused NOW —
		// recording it would leave a data dir the daemon can never boot
		// from again. Canonical renderings are compared, not raw structs:
		// the parser seeds rmat defaults (degree/labels/seed) even for
		// file/text specs, where those fields are meaningless and the
		// -graph boot path leaves them zero — only the fields SpecString
		// actually records need to survive the trip.
		if reparsed, err := ParseNamespaceSpec(spec.Name, spec.SpecString()); err != nil || reparsed.SpecString() != spec.SpecString() {
			return fmt.Errorf("server: namespace %q: spec %q cannot be recorded durably (does not round-trip through the spec grammar; a path must not contain ','): %v",
				spec.Name, spec.SpecString(), err)
		}
		if maxTotal == 0 {
			if persisted, ok := s.store.specFor(spec.Name); ok {
				if persisted == spec.SpecString() {
					if _, live := s.reg.get(spec.Name); live {
						return nil // recovered at boot; the flag re-states it
					}
				} else {
					return fmt.Errorf("server: namespace %q: boot spec %q contradicts the persisted spec %q (drop the namespace or move -data-dir)",
						spec.Name, spec.SpecString(), persisted)
				}
			}
		}
	}
	// Fail fast on an obvious duplicate before paying for the build. With
	// persistence this check is authoritative: the name lock above blocks
	// same-name creates and drops, so membership cannot change underneath
	// the build. Without persistence the add below re-checks under the
	// registry lock, so a concurrent create of the same name still
	// resolves to exactly one winner.
	if _, exists := s.reg.get(spec.Name); exists {
		return fmt.Errorf("server: namespace %q: %w", spec.Name, ErrNamespaceExists)
	}
	eng, err := spec.Build()
	if err != nil {
		return err
	}
	var store *nsStorage
	if s.store != nil {
		store, err = s.store.newNamespaceStorage(spec, eng.Cluster())
		if err != nil {
			return fmt.Errorf("server: namespace %q: %w", spec.Name, err)
		}
	}
	ns := newNamespace(spec.Name, eng, spec.configFor(s.cfg), store)
	if err := s.reg.add(ns, maxTotal); err != nil {
		ns.close()
		if store != nil {
			os.RemoveAll(store.dir)
		}
		return err
	}
	if s.store != nil {
		// The manifest entry is the durable create: recorded only after the
		// namespace is live, so a crash in between loses an un-acked create,
		// never resurrects a failed one.
		if err := s.store.record(spec.Name, spec.SpecString()); err != nil {
			s.reg.remove(spec.Name)
			ns.close()
			os.RemoveAll(store.dir)
			return fmt.Errorf("server: namespace %q: recording in manifest: %w", spec.Name, err)
		}
	}
	return nil
}

// DropNamespace removes name from the registry. In-flight requests against
// it finish normally; updates still sitting in its queue fail with 503.
// Subsequent requests 404. It reports whether the namespace existed. With
// a data dir the drop is durable: the manifest forgets the namespace first
// (the durable intent — a crash mid-drop must not resurrect it), then the
// dispatcher is drained, the journal closed, and the directory removed
// (a crash before the removal leaves an orphan dir that boot cleans up).
// If the manifest write itself fails, the drop is aborted and the
// namespace stays live — destroying the data while the manifest still
// lists it would resurrect the tenant, freshly rebuilt from its spec, on
// the next boot.
func (s *Server) DropNamespace(name string) (bool, error) {
	if s.store != nil {
		// Same-name serialization as addNamespaceSpec: the RemoveAll below
		// must never race a re-create's freshly opened journal.
		unlock := s.store.lockName(name)
		defer unlock()
	}
	ns, ok := s.reg.remove(name)
	if !ok {
		return false, nil
	}
	if s.store != nil {
		if err := s.store.forget(name); err != nil {
			// Un-drop: the durable intent never landed. Re-registration can
			// only fail if the server closed meanwhile — then the namespace
			// is shut down like every other survivor.
			if addErr := s.reg.add(ns, 0); addErr != nil {
				ns.close()
			}
			return false, fmt.Errorf("server: namespace %q: recording the drop: %w", name, err)
		}
	}
	ns.close()
	if s.store != nil && ns.store != nil {
		os.RemoveAll(ns.store.dir)
	}
	return true, nil
}

// NamespaceInfo returns the named tenant's summary, or false if it does
// not exist.
func (s *Server) NamespaceInfo(name string) (NamespaceInfo, bool) {
	ns, ok := s.reg.get(name)
	if !ok {
		return NamespaceInfo{}, false
	}
	return ns.info(), true
}

// Namespaces returns the registered namespace names, sorted.
func (s *Server) Namespaces() []string {
	list := s.reg.list()
	names := make([]string, len(list))
	for i, ns := range list {
		names[i] = ns.name
	}
	return names
}
