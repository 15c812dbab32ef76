package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stwig/internal/server/client"
)

// daemonMachines is stwigd's -machines default; the oracle and the in-process
// trace depths load their clusters the same way the daemon does.
const daemonMachines = 8

// adminToken gates /debug/pprof on the daemons the harness spawns.
const adminToken = "stwigbench"

// rig owns everything a run leaves behind — child processes and the scratch
// directory — so one Close on any exit path (return, failure, SIGINT)
// removes it all.
type rig struct {
	// stwigd is the built daemon binary; dir the run's scratch directory.
	stwigd string
	dir    string

	mu        sync.Mutex
	daemons   []*daemon
	closed    bool
	closeOnce sync.Once
}

// repoRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module stwig.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module stwig" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("stwigbench: no go.mod declaring module stwig above the working directory; run from the stwig checkout")
		}
		dir = parent
	}
}

// newRig builds ./cmd/stwigd from the checkout at root into base/bin and
// creates a fresh scratch directory under base/tmp.
func newRig(root, base string) (*rig, error) {
	bin := filepath.Join(base, "bin", "stwigd")
	if err := os.MkdirAll(filepath.Join(base, "tmp"), 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/stwigd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ./cmd/stwigd: %v\n%s", err, out)
	}
	dir, err := os.MkdirTemp(filepath.Join(base, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &rig{stwigd: bin, dir: dir}, nil
}

// Close kills every daemon still running, waits for each, and removes the
// scratch directory. It may be called more than once and from the signal
// handler's goroutine; every call returns only when the clean-up is done.
func (r *rig) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		ds := r.daemons
		r.mu.Unlock()
		for _, d := range ds {
			d.stop()
		}
		os.RemoveAll(r.dir)
	})
}

// daemon is one spawned stwigd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// cl is the repository's own client: health, stats, the verify pass,
	// and (with the admin token) the heap profile. Updates are not retried,
	// so a refusal shows as a failed op.
	cl     *client.Client
	stderr string // path of the captured stderr
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// freeAddrs asks the kernel for n unused loopback ports, holding all of them
// open until the last is chosen so they are distinct.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// spawn starts stwigd on addr with the harness's admin token and the given
// extra flags; everything else stays at the daemon's defaults.
func (r *rig) spawn(addr string, args ...string) (*daemon, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("stwigbench: rig closed")
	}
	errPath := filepath.Join(r.dir, fmt.Sprintf("stwigd-%d.stderr", len(r.daemons)))
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	cmd := exec.Command(r.stwigd, append([]string{"-addr", addr, "-admin-token", adminToken}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = errFile
	// A harness killed without a chance to clean up must not leave daemons.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd: cmd, addr: addr, stderr: errPath, exited: make(chan struct{}),
		cl: client.New(addr, client.WithToken(adminToken), client.WithRetry(0, 0)),
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	r.daemons = append(r.daemons, d)
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the process and waits until it has ended.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
}

// dead reports an unexpected exit as an error carrying the stderr tail.
func (d *daemon) dead() error {
	select {
	case <-d.exited:
		return fmt.Errorf("stwigd (pid %d, %s) died: %v\n--- stderr tail ---\n%s", d.pid(), d.addr, d.cmd.ProcessState, d.stderrTail())
	default:
		return nil
	}
}

func (d *daemon) stderrTail() string {
	data, err := os.ReadFile(d.stderr)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// waitHealthy polls /v1/healthz until the daemon answers 200, dies, or ctx
// ends.
func (d *daemon) waitHealthy(ctx context.Context) error {
	for {
		if err := d.dead(); err != nil {
			return err
		}
		if d.cl.Healthz(ctx) == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("stwigd %s never became healthy: %w\n--- stderr tail ---\n%s", d.addr, ctx.Err(), d.stderrTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// topology is the set of processes serving one workload: a single daemon, or
// a coordinator in front of two shards. front is the process clients talk to.
type topology struct {
	front *daemon
	all   []*daemon
	// bootSeconds is spawn of every process → the first query's terminal
	// record: what an operator waits for after starting the service.
	bootSeconds float64
}

func (t *topology) stop() {
	for _, d := range t.all {
		d.stop()
	}
}

// dead reports the first process of the topology that has exited.
func (t *topology) dead() error {
	for _, d := range t.all {
		if err := d.dead(); err != nil {
			return err
		}
	}
	return nil
}

// boot cold-starts w's topology and answers one query through it. boot is
// the ordinal of this start within the run; a read-write workload gets a
// fresh -data-dir per boot so every start loads the graph file instead of
// recovering a checkpoint. On failure the processes already started are left
// to the rig's Close.
func (r *rig) boot(ctx context.Context, w *workloadData, boot int) (*topology, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t := &topology{}
	start := time.Now()
	if w.spec.cluster {
		addrs, err := freeAddrs(3)
		if err != nil {
			return nil, err
		}
		shardMap := "http://" + addrs[0] + ",http://" + addrs[1]
		for i, a := range addrs[:2] {
			d, err := r.spawn(a, "-graph", w.graphFile, "-shard-map", shardMap, "-shard-id", strconv.Itoa(i))
			if err != nil {
				return nil, err
			}
			t.all = append(t.all, d)
		}
		if t.front, err = r.spawn(addrs[2], "-shard-map", shardMap); err != nil {
			return nil, err
		}
	} else {
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, err
		}
		args := []string{"-graph", w.graphFile}
		if w.spec.rw {
			args = append(args, "-data-dir", filepath.Join(w.dir, fmt.Sprintf("data-%d", boot)))
		}
		if t.front, err = r.spawn(addrs[0], args...); err != nil {
			return nil, err
		}
	}
	t.all = append(t.all, t.front)
	for _, d := range t.all {
		if err := d.waitHealthy(ctx); err != nil {
			return nil, err
		}
	}
	c, err := dial(t.front.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var s opSample
	if err := c.do(firstQuery(w.ops), &s); err != nil {
		return nil, fmt.Errorf("first query after boot: %w", err)
	}
	t.bootSeconds = time.Since(start).Seconds()
	return t, nil
}

func firstQuery(ops []op) *op {
	for i := range ops {
		if ops[i].isQuery() {
			return &ops[i]
		}
	}
	panic("stwigbench: workload without a query op")
}

// cpuNanos is the CPU time d's process has consumed so far: the on-CPU
// nanoseconds of every thread, from /proc/<pid>/task/*/schedstat (utime+stime
// of /proc/<pid>/stat tick at 10 ms, too coarse for a 0.5 s pass).
func (d *daemon) cpuNanos() (int64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.pid()))
	var total int64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("no scheduler statistics for stwigd pid %d under /proc (kernel without CONFIG_SCHED_INFO?)", d.pid())
	}
	return total, nil
}

// procStatusKB reads one "Key:   N kB" line of /proc/<pid>/status.
func (d *daemon) procStatusKB(key string) int64 {
	return procKV(fmt.Sprintf("/proc/%d/status", d.pid()), key)
}

// writeBytes is the bytes d has caused to be sent to the storage layer
// (/proc/<pid>/io write_bytes).
func (d *daemon) writeBytes() int64 {
	return procKV(fmt.Sprintf("/proc/%d/io", d.pid()), "write_bytes")
}

func procKV(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), ":"); ok && name == key {
			if fields := strings.Fields(rest); len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// memStats is the slice of runtime.MemStats the daemon prints at the end of
// /debug/pprof/heap?debug=1.
type memStats struct {
	mallocs   int64
	heapAlloc int64
	numGC     int64
	// pauseNs is the runtime's circular buffer of recent GC pauses.
	pauseNs []int64
}

// heapStats fetches d's MemStats through the token-gated heap profile; gc
// forces a collection first, so heapAlloc is the live heap.
func (d *daemon) heapStats(gc bool) (memStats, error) {
	query := "debug=1"
	if gc {
		query += "&gc=1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	body, err := d.cl.Admin().Profile(ctx, "heap", query)
	if err != nil {
		return memStats{}, err
	}
	defer body.Close()
	var ms memStats
	seen := 0
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		switch name {
		case "Mallocs":
			ms.mallocs, _ = strconv.ParseInt(val, 10, 64)
		case "HeapAlloc":
			ms.heapAlloc, _ = strconv.ParseInt(val, 10, 64)
		case "NumGC":
			ms.numGC, _ = strconv.ParseInt(val, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, _ := strconv.ParseInt(f, 10, 64)
				ms.pauseNs = append(ms.pauseNs, n)
			}
		default:
			continue
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	if seen < 4 {
		return memStats{}, fmt.Errorf("heap profile of %s: MemStats block not found", d.addr)
	}
	return ms, nil
}

// pauseSince sums the GC pauses of the cycles after prev.numGC. The runtime
// keeps the last 256; older cycles of a longer interval are not counted.
func (ms memStats) pauseSince(prev memStats) int64 {
	var total int64
	n := int64(len(ms.pauseNs))
	if n == 0 {
		return 0
	}
	for c := max(prev.numGC, ms.numGC-n); c < ms.numGC; c++ {
		total += ms.pauseNs[c%n] // the (c+1)-th cycle's pause lives at index c%256
	}
	return total
}
