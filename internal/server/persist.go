package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"stwig/internal/core"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
)

// Durability layout under Config.DataDir:
//
//	<data-dir>/manifest.json       which namespaces exist, and their specs
//	<data-dir>/ns/<name>/checkpoint.bin   latest cluster snapshot (optional)
//	<data-dir>/ns/<name>/journal.wal      batches applied since the checkpoint
//
// The write path is LogBase-shaped: the dispatcher appends each writer
// window's batch to the namespace's journal as one record and its fsync
// lands BEFORE ApplyBatch touches the in-memory cluster, so a crash at any
// instant loses at most un-acked work — never an acknowledged mutation.
// Every update queued when the window opens shares that record and that
// fsync (appendBatch). Recovery re-creates each manifest namespace (from its
// checkpoint when one exists, else by rebuilding its spec), replays the
// journal records past the checkpoint's sequence number, and truncates any
// torn tail a mid-append crash left behind. A checkpoint snapshots the
// cluster and resets the journal once the journal has grown as large as the
// checkpoint (maybeCheckpoint): a checkpoint costs no more bytes than the
// journal it retires (plus what the graph grew by since its size was
// measured), and replay reads about one checkpoint's worth of journal at
// most. A namespace built from a graph file checkpoints after its first
// record instead (firstDue), so recovery never re-reads a file that may have
// changed. A journal that long is tailed through a sparse index of record
// offsets (tailOffset), so a follower's poll reads what it ships.

const (
	manifestName   = "manifest.json"
	nsSubdir       = "ns"
	checkpointName = "checkpoint.bin"
	journalName    = "journal.wal"

	ckptMagic      = "STWC"
	ckptVersion    = 1
	ckptHeaderSize = 24 // magic, version, seq, epoch
)

// manifestFile is the on-disk namespace ledger. Specs are stored in the
// canonical textual grammar (NamespaceSpec.SpecString), so the manifest is
// both human-auditable and replayable through the exact same parser the
// boot flags use.
type manifestFile struct {
	Version    int               `json:"version"`
	Namespaces map[string]string `json:"namespaces"`
}

// dataStore owns the server's data directory: the manifest plus one
// sub-directory per persisted namespace.
type dataStore struct {
	dir string
	cfg Config
	// lock is the flock'd LOCK file held for the server's lifetime, so two
	// processes sharing one data dir cannot interleave journal appends or
	// last-writer-win each other's manifest. The kernel drops the lock on
	// any exit — including SIGKILL — so a crashed owner never wedges the
	// next boot.
	lock *os.File

	mu     sync.Mutex
	man    manifestFile
	nameMu map[string]*sync.Mutex // per-namespace create/drop serialization
	closed bool
}

func openDataStore(dir string, cfg Config) (*dataStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, nsSubdir), 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("server: data dir %s: %w", dir, err)
	}
	d := &dataStore{
		dir:    dir,
		cfg:    cfg,
		lock:   lock,
		man:    manifestFile{Version: 1, Namespaces: map[string]string{}},
		nameMu: map[string]*sync.Mutex{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh data dir.
	case err != nil:
		d.close()
		return nil, fmt.Errorf("server: manifest: %w", err)
	default:
		if err := json.Unmarshal(raw, &d.man); err != nil {
			d.close()
			return nil, fmt.Errorf("server: manifest %s is corrupt: %w", filepath.Join(dir, manifestName), err)
		}
		if d.man.Namespaces == nil {
			d.man.Namespaces = map[string]string{}
		}
	}
	return d, nil
}

// close releases the data-dir lock so a successor (next test server, next
// in-process boot) can take over. Idempotent.
func (d *dataStore) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	if d.lock != nil {
		releaseDirLock(d.lock)
	}
}

// lockName serializes create/drop for one namespace name, returning the
// unlock. Without this, a create racing a drop (or a twin create) of the
// same name could RemoveAll the directory the live winner's journal is
// appending to — acknowledged updates would vanish.
func (d *dataStore) lockName(name string) func() {
	d.mu.Lock()
	l := d.nameMu[name]
	if l == nil {
		l = &sync.Mutex{}
		d.nameMu[name] = l
	}
	d.mu.Unlock()
	l.Lock()
	return l.Unlock
}

func (d *dataStore) nsDir(name string) string { return filepath.Join(d.dir, nsSubdir, name) }

// specFor returns the manifest's spec text for name.
func (d *dataStore) specFor(name string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.man.Namespaces[name]
	return s, ok
}

// names returns the manifest's namespaces, sorted for deterministic boot.
func (d *dataStore) names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.man.Namespaces))
	for n := range d.man.Namespaces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// record durably adds (or overwrites) name's spec in the manifest.
func (d *dataStore) record(name, spec string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.man.Namespaces[name] = spec
	return d.saveLocked()
}

// forget durably removes name from the manifest. Removing a name that is
// not present is a no-op (and not an error), so drop paths stay idempotent.
func (d *dataStore) forget(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.man.Namespaces[name]; !ok {
		return nil
	}
	delete(d.man.Namespaces, name)
	return d.saveLocked()
}

// saveLocked writes the manifest atomically: tmp file, fsync, rename, then
// directory fsync, so a crash leaves either the old or the new manifest —
// never a torn one.
func (d *dataStore) saveLocked() error {
	raw, err := json.MarshalIndent(d.man, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(d.dir, manifestName), raw)
}

// acquireDirLock takes a non-blocking exclusive flock on path. A held lock
// means another live stwigd owns the data dir — two writers interleaving
// appends in one journal would corrupt acknowledged records, so failing
// fast here is the only safe answer.
func acquireDirLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("already locked by another stwigd process (flock: %w)", err)
	}
	return f, nil
}

func releaseDirLock(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}

// atomicWrite publishes data at path via tmp+fsync+rename+dir-fsync.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// cleanOrphans removes ns/ sub-directories the manifest does not list: the
// leftovers of a drop that crashed between its manifest update (the durable
// intent) and its directory removal.
func (d *dataStore) cleanOrphans() error {
	entries, err := os.ReadDir(filepath.Join(d.dir, nsSubdir))
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if _, ok := d.man.Namespaces[e.Name()]; !ok {
			if err := os.RemoveAll(filepath.Join(d.dir, nsSubdir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- per-namespace storage -------------------------------------------------

// checkpointSize is the size of the checkpoint file a namespace would write
// for cluster c now. nsStorage measures it once, when it opens; after a
// checkpoint it takes the size of the file it wrote.
func checkpointSize(c *memcloud.Cluster) int64 { return ckptHeaderSize + c.SnapshotBytes() }

// ruleBytes is the checkpoint size the checkpoint rule works with, given
// the measured or written size n: n itself. Tests replace it
// (export_test.go) to place checkpoints at chosen journal sizes.
var ruleBytes = func(n int64) int64 { return n }

// firstDue is the journal size at which a namespace that just opened with
// a checkpoint of ckptBytes writes its next one. A namespace built from a
// graph file (file: or text: spec) with no checkpoint yet would be rebuilt
// by reading that file again, which may have changed or gone since, and its
// journal replayed onto it by vertex id; so it checkpoints as soon as its
// journal holds a record, and from then on its history never depends on
// the file. An rmat spec rebuilds the same graph from its seed every time.
func firstDue(spec NamespaceSpec, hasCheckpoint bool, ckptBytes int64) int64 {
	if !hasCheckpoint && (spec.Source == "file" || spec.Source == "text") {
		return 0
	}
	return ckptBytes
}

// tailIndexStride is the journal distance between two entries of
// nsStorage.tailIndex: a wal tail reads at most this much journal in front
// of its cursor's record.
const tailIndexStride = 64 << 10

// recordStart is where one journal record's frame begins in the file.
type recordStart struct {
	seq uint64
	off int64
}

// nsStorage is one namespace's durable state: its journal writer plus the
// checkpoint bookkeeping. The update dispatcher is its only writer; stats
// snapshots may run concurrently, hence the mutex on the counters.
type nsStorage struct {
	dir   string
	fsync bool

	w       *journal.Writer
	cluster *memcloud.Cluster
	// ckptBytes is the checkpoint's size as the rule sees it (ruleBytes):
	// measured when the storage opened, then the size of the last file
	// written. dueAt is the journal size at which the next checkpoint runs:
	// ckptBytes (0 for a file-built namespace with no checkpoint yet, see
	// firstDue), or ckptBytes past the journal size at a failed attempt.
	// Only the namespace's one mutator (the dispatcher, or a follower's
	// replication loop) reads or writes them.
	ckptBytes, dueAt int64

	mu     sync.Mutex
	info   JournalInfo
	closed bool
	// tailIndex holds the start of the journal's first record and of one
	// record per tailIndexStride bytes after it, in file order, so a wal
	// tail reads from just before its cursor (tailOffset) instead of from
	// the start of a journal that may be as large as the graph.
	tailIndex []recordStart
	// change is closed (and replaced) on every append, waking wal long-poll
	// waiters; lazily created by appendWait so namespaces nobody tails pay
	// nothing.
	change chan struct{}
	// failed fail-stops the write path: set when the journal and the live
	// graph can no longer be proven to agree (a rollback of a bad record
	// itself failed). Every further append is refused — serving reads while
	// refusing writes until a restart re-derives state from disk is strictly
	// safer than acking updates a recovery might not reproduce.
	failed bool
}

var errJournalFailed = errors.New("journal failed; namespace is read-only until restart")

// appendBatch journals one writer window's mutations as one record and
// makes it durable with one flush (+ one fsync unless JournalNoSync) — the
// durability point the window's acks sit behind. Nothing is visible to
// /stats, wal tailers, or appendWait until then: publishing a sequence
// number before its fsync would let a follower replicate a record the
// leader may yet roll back. The caller holds the writer window and is the
// journal's only writer, so the Writer needs no lock of its own; st.mu
// guards only the counters, and crucially is NOT held across the fsync —
// /stats must never stall behind disk latency.
//
// A failed append or sync rolls the journal back to the pre-append
// position: the batch is never applied, so leaving its record in the WAL
// would make a future replay apply a batch the live graph never saw —
// shifting every later vertex ID. If even the rollback fails, the write
// path is fail-stopped (errJournalFailed) rather than left to diverge. The
// returned mark lets the caller roll the record back itself when the batch
// fails AFTER journaling (an ApplyBatch panic).
func (st *nsStorage) appendBatch(muts []memcloud.Mutation) (journal.Mark, error) {
	mark, start := st.w.Mark(), st.w.Size()
	body, err := journal.EncodeBatch(muts)
	if err != nil {
		return mark, err
	}
	st.mu.Lock()
	closed, failed := st.closed, st.failed
	st.mu.Unlock()
	if failed {
		return mark, errJournalFailed
	}
	if closed {
		return mark, errors.New("journal closed")
	}
	seq, err := st.w.Append(body)
	var fsyncs uint64
	if err == nil {
		if st.fsync {
			err = st.w.Sync()
			fsyncs = 1
		} else {
			err = st.w.Flush()
		}
	}
	if err != nil {
		st.rollback(mark)
		return mark, err
	}
	st.mu.Lock()
	st.info.Fsyncs += fsyncs
	st.info.Records++
	st.info.Bytes += uint64(len(body)) + journal.FrameOverhead
	st.info.LastSeq = seq
	st.info.SizeBytes = st.w.Size()
	st.indexLocked(seq, start)
	st.notifyLocked()
	st.mu.Unlock()
	return mark, nil
}

// indexLocked notes that record seq starts at byte off, if it is the
// journal's first record or tailIndexStride past the last one noted.
// Caller holds st.mu.
func (st *nsStorage) indexLocked(seq uint64, off int64) {
	if n := len(st.tailIndex); n == 0 || off-st.tailIndex[n-1].off >= tailIndexStride {
		st.tailIndex = append(st.tailIndex, recordStart{seq, off})
	}
}

// tailOffset returns where a read of the records past after can start in
// the journal file: the start of the last indexed record at or before
// record after+1 (0 when there is none).
func (st *nsStorage) tailOffset(after uint64) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := sort.Search(len(st.tailIndex), func(i int) bool { return st.tailIndex[i].seq > after+1 })
	if i == 0 {
		return 0
	}
	return st.tailIndex[i-1].off
}

// notifyLocked wakes every appendWait waiter. Caller holds st.mu.
func (st *nsStorage) notifyLocked() {
	if st.change != nil {
		close(st.change)
		st.change = nil
	}
}

// appendWait returns a channel that is closed at the next append (or close)
// plus the current last sequence, so a wal long-poll can park without
// holding any lock a writer needs.
func (st *nsStorage) appendWait() (<-chan struct{}, uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.change == nil {
		st.change = make(chan struct{})
	}
	return st.change, st.info.LastSeq
}

// tailState snapshots the positions the replication endpoints need: the
// newest journaled sequence and the highest sequence compacted into the
// checkpoint (records at or below it are no longer tailable).
func (st *nsStorage) tailState() (lastSeq, ckptSeq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.info.LastSeq, st.info.CheckpointSeq
}

// sealTail fsyncs the journal so everything a follower replicated is
// durable before promotion opens the namespace for writes of its own.
// Called only after the replication loops have fully stopped.
func (st *nsStorage) sealTail() error {
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return nil
	}
	return st.w.Sync()
}

// rollback undoes the append since mark (and any partial write under it).
// A rollback that itself fails poisons the write path: the WAL now holds a
// record whose batch was not applied, and no further append may land after
// it.
func (st *nsStorage) rollback(mark journal.Mark) {
	if err := st.w.Rollback(mark); err != nil {
		st.mu.Lock()
		st.failed = true
		st.mu.Unlock()
		return
	}
	st.mu.Lock()
	st.info.SizeBytes = st.w.Size()
	for len(st.tailIndex) > 0 && st.tailIndex[len(st.tailIndex)-1].off >= st.info.SizeBytes {
		st.tailIndex = st.tailIndex[:len(st.tailIndex)-1]
	}
	st.mu.Unlock()
}

// discardAppended rolls back the record appended for a batch that was
// journaled but then failed to apply (ApplyBatch panic). The jobs were all
// answered with errors — un-acked work may be discarded — but the record
// must not survive to replay, or recovery would apply a batch the clients
// were told failed.
func (st *nsStorage) discardAppended(mark journal.Mark) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
	st.rollback(mark)
}

// maybeCheckpoint runs a checkpoint once the journal has grown as large as
// the checkpoint would be (dueAt), so the checkpoint costs no more bytes than
// the journal it retires; an empty journal is never checkpointed. Called
// from the dispatcher loop between batches, so the snapshot is exact: no
// mutation can land between the last journal record and the snapshot. A
// failure is recorded and the next attempt waits for another checkpoint's
// worth of journal, instead of hammering a full-cluster snapshot onto an
// already-struggling disk after every single batch; the journal keeps every
// record until one succeeds.
func (st *nsStorage) maybeCheckpoint() {
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed || st.w.Size() == 0 || st.w.Size() < st.dueAt {
		return
	}
	if err := st.checkpoint(); err != nil {
		st.dueAt = st.w.Size() + st.ckptBytes
		st.mu.Lock()
		st.info.CheckpointErrors++
		st.mu.Unlock()
	}
}

// checkpoint snapshots the cluster, publishes it atomically, and resets the
// journal. Crash windows: before the rename, the old checkpoint+journal
// pair still recovers; between the rename and the reset, replay skips the
// journal's records because their sequence numbers are at or below the new
// checkpoint's. Like appendBatch, the Writer and the file I/O run outside
// st.mu (the dispatcher is the sole caller).
func (st *nsStorage) checkpoint() error {
	seq := st.w.NextSeq() - 1
	epoch := st.cluster.Epoch()
	n, err := writeCheckpoint(filepath.Join(st.dir, checkpointName), st.cluster, seq, epoch)
	if err != nil {
		return err
	}
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return nil
	}
	if err := st.w.Reset(); err != nil {
		return err
	}
	st.ckptBytes = ruleBytes(n)
	st.dueAt = st.ckptBytes
	st.mu.Lock()
	st.info.Checkpoints++
	st.info.CheckpointSeq = seq
	st.info.SizeBytes = 0
	st.tailIndex = st.tailIndex[:0]
	st.mu.Unlock()
	return nil
}

// journalStats snapshots the counters for /stats and /metrics; nil for a
// namespace that is not persisted (a nil receiver).
func (st *nsStorage) journalStats() *JournalInfo {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.info
	out.Enabled = true
	return &out
}

// close closes the journal file. Idempotent; safe against a concurrent
// Server.Close + DropNamespace pair. The caller must have stopped the
// dispatcher first (pipe.close), so no append can race the file close.
func (st *nsStorage) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	st.notifyLocked() // wake parked wal long-polls so they re-check and exit
	st.w.Close()
}

// --- checkpoint file -------------------------------------------------------

// writeCheckpointTo streams the checkpoint format to w straight from c's
// cells (memcloud.WriteSnapshot: no second copy of the graph, the update lock
// held until the last byte is handed to w). The same frame is the
// snapshot-bootstrap wire format of GET /v1/ns/{name}/snapshot, so a follower
// can save the response body as its checkpoint file verbatim.
func writeCheckpointTo(w io.Writer, c *memcloud.Cluster, seq, epoch uint64) error {
	var hdr [ckptHeaderSize]byte
	copy(hdr[:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], epoch)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return c.WriteSnapshot(w)
}

// writeCheckpoint publishes the snapshot atomically and returns the size of
// the file:
//
//	"STWC" | u32 version | u64 seq | u64 epoch | graph binary (STWG...)
func writeCheckpoint(path string, c *memcloud.Cluster, seq, epoch uint64) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if err := writeCheckpointTo(tmp, c, seq, epoch); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	fi, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return fi.Size(), syncDir(dir)
}

// readCheckpointFrom streams a checkpoint (file or snapshot response body)
// onto a fresh cluster of the given size and restores its epoch: no graph is
// built first, so a restore holds one copy of the graph. It returns the
// cluster and the checkpoint's sequence number.
func readCheckpointFrom(r io.Reader, what string, machines int) (*memcloud.Cluster, uint64, error) {
	var hdr [ckptHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("server: checkpoint header: %w", err)
	}
	if string(hdr[:4]) != ckptMagic {
		return nil, 0, fmt.Errorf("server: checkpoint %s: bad magic %q", what, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ckptVersion {
		return nil, 0, fmt.Errorf("server: checkpoint %s: unsupported version %d", what, v)
	}
	seq := binary.LittleEndian.Uint64(hdr[8:16])
	epoch := binary.LittleEndian.Uint64(hdr[16:24])
	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: machines})
	if err != nil {
		return nil, 0, err
	}
	if err := cluster.LoadBinary(r); err != nil {
		return nil, 0, fmt.Errorf("server: checkpoint %s: %w", what, err)
	}
	cluster.RestoreEpoch(epoch)
	return cluster, seq, nil
}

// readCheckpoint loads a checkpoint. A missing file returns (nil, 0, nil):
// recovery then rebuilds from the spec.
func readCheckpoint(path string, machines int) (*memcloud.Cluster, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return readCheckpointFrom(f, path, machines)
}

// saveCheckpointStream copies a leader snapshot (already in checkpoint-file
// format) into a namespace dir atomically, so a follower bootstrap can then
// run ordinary recovery over it.
func saveCheckpointStream(dir string, r io.Reader) error {
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, r); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, checkpointName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// --- recovery --------------------------------------------------------------

// recoverEngine rebuilds one namespace's engine from its directory: load
// the checkpoint when one exists (else materialize the spec from scratch),
// then replay every journal record past the checkpoint's sequence number.
// The returned storage has a repaired, open journal whose next sequence
// number continues the recovered history.
//
// A record whose replay PANICS is handled like the live dispatcher handles
// it (contained, batch failed): if it is the journal's last record — the
// only place the live path's fail-stop can leave one, since nothing is
// appended after a poisoned record — it is truncated away and recovery
// restarts without it, instead of boot-looping the daemon. A panic on an
// interior record has acknowledged history after it and is refused as
// corruption.
func recoverEngine(spec NamespaceSpec, dir string, cfg Config) (*core.Engine, *nsStorage, error) {
	return recoverEngineRetry(spec, dir, cfg, 0)
}

func recoverEngineRetry(spec NamespaceSpec, dir string, cfg Config, depth int) (*core.Engine, *nsStorage, error) {
	fail := func(err error) (*core.Engine, *nsStorage, error) {
		return nil, nil, fmt.Errorf("server: recovering namespace %q: %w", spec.Name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	cluster, ckptSeq, err := readCheckpoint(filepath.Join(dir, checkpointName), spec.Machines)
	if err != nil {
		return fail(err)
	}
	var eng *core.Engine
	if cluster != nil {
		eng = core.NewEngine(cluster, core.Options{})
	} else {
		eng, err = spec.Build()
		if err != nil {
			return fail(err)
		}
	}

	walPath := filepath.Join(dir, journalName)
	recs, rep, err := journal.ScanFile(walPath)
	if err != nil {
		return fail(err)
	}
	info := JournalInfo{CheckpointSeq: ckptSeq, TornTailRecovered: rep.Torn}
	lastSeq := ckptSeq
	sawLive := false
	for i, r := range recs {
		if r.Seq <= ckptSeq {
			// Pre-checkpoint records a crash between checkpoint publication
			// and journal truncation left behind: already in the snapshot.
			continue
		}
		muts, err := journal.DecodeBatch(r.Body)
		if err != nil {
			// The frame's CRC was intact, so this is not a torn tail — it is
			// real corruption (or a version skew). Refusing to serve beats
			// silently skipping acknowledged writes.
			return fail(fmt.Errorf("journal record seq %d: %w", r.Seq, err))
		}
		// Per-mutation conflicts replay exactly as they did live (ApplyBatch
		// is deterministic given identical state), so they are not errors.
		if _, err := applyContained(eng, muts); err != nil {
			if i != len(recs)-1 {
				return fail(fmt.Errorf("journal record seq %d panicked on replay with committed history after it", r.Seq))
			}
			if depth > 0 {
				return fail(fmt.Errorf("journal record seq %d panicked on replay after tail repair", r.Seq))
			}
			// A poisoned tail: the live path fail-stops after a record whose
			// apply panicked and whose rollback failed, so every job behind
			// it was answered 500 — dropping it loses nothing acknowledged.
			// The panicked replay may have half-applied the batch, so the
			// whole recovery restarts from scratch without the record.
			cut := int64(0)
			if i > 0 {
				cut = recs[i-1].End
			}
			if err := os.Truncate(walPath, cut); err != nil {
				return fail(err)
			}
			return recoverEngineRetry(spec, dir, cfg, depth+1)
		}
		info.ReplayedRecords++
		info.ReplayedMutations += uint64(len(muts))
		lastSeq = r.Seq
		sawLive = true
	}

	w, err := journal.OpenWriter(walPath, rep.Committed, lastSeq+1)
	if err != nil {
		return fail(err)
	}
	w.SetAlign(cfg.JournalAlign)
	// Make the journal's directory entry durable: fsyncing the file alone
	// does not persist a freshly created name, and a crash could otherwise
	// vanish a journal whose appends were already acknowledged.
	if err := syncDir(dir); err != nil {
		w.Close()
		return fail(err)
	}
	if !sawLive && rep.Committed > 0 {
		// Every surviving record was at or below the checkpoint: finish the
		// truncation the crash interrupted.
		if err := w.Reset(); err != nil {
			w.Close()
			return fail(err)
		}
	}
	info.LastSeq = lastSeq
	info.SizeBytes = w.Size()
	st := &nsStorage{
		dir:       dir,
		fsync:     !cfg.JournalNoSync,
		w:         w,
		cluster:   eng.Cluster(),
		ckptBytes: ruleBytes(checkpointSize(eng.Cluster())),
		info:      info,
	}
	st.dueAt = firstDue(spec, cluster != nil, st.ckptBytes)
	if w.Size() > 0 {
		for i, r := range recs {
			start := int64(0)
			if i > 0 {
				start = recs[i-1].End
			}
			st.indexLocked(r.Seq, start)
		}
	}
	return eng, st, nil
}

// newNamespaceStorage prepares the durable state for a freshly created
// namespace: a clean directory (stale leftovers of an earlier same-named
// tenant are removed) and an empty, open journal.
func (d *dataStore) newNamespaceStorage(spec NamespaceSpec, cluster *memcloud.Cluster) (*nsStorage, error) {
	dir := d.nsDir(spec.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := journal.OpenWriter(filepath.Join(dir, journalName), 0, 1)
	if err != nil {
		return nil, err
	}
	w.SetAlign(d.cfg.JournalAlign)
	// Persist the directory entries (ns/<name> and its journal.wal): the
	// first acknowledged update fsyncs only file CONTENT, so the names
	// themselves must be durable before any ack can rely on them.
	if err := syncDir(dir); err != nil {
		w.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		w.Close()
		return nil, err
	}
	ckptBytes := ruleBytes(checkpointSize(cluster))
	return &nsStorage{
		dir:       dir,
		fsync:     !d.cfg.JournalNoSync,
		w:         w,
		cluster:   cluster,
		ckptBytes: ckptBytes,
		dueAt:     firstDue(spec, false, ckptBytes),
	}, nil
}
