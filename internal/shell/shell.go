// Package shell implements the Eclipse coprocessor shell: the generic
// infrastructure block instantiated next to every coprocessor (paper
// Sections 3.1 and 5). A shell owns the local stream table and task
// table, answers the five task-level interface primitives (GetTask, Read,
// Write, GetSpace, PutSpace), synchronizes streams with remote shells
// through putspace messages, schedules tasks with a weighted round-robin
// "best guess" policy, moves stream data through read/write caches whose
// coherency is driven by the synchronization events, and accumulates
// per-task and per-stream performance measurements.
package shell

import (
	"fmt"

	"eclipse/internal/mem"
	"eclipse/internal/sim"
)

// Config parameterizes a shell instance, mirroring the paper's
// "parameterized shell template" whose instances are derived per
// coprocessor (Section 3.1).
type Config struct {
	Name string

	// Cache geometry. LineBytes 0 defaults to the memory bus width.
	ReadCacheLines  int
	WriteCacheLines int
	LineBytes       int

	// PrefetchDepth is how many lines ahead of a read the shell
	// prefetches inside the granted window; 0 disables prefetching.
	PrefetchDepth int

	// MsgLatency is the putspace-message network latency in cycles.
	MsgLatency uint64

	// NaiveScheduler disables the "best guess" runnability test: tasks
	// are dispatched round-robin even when their last GetSpace denial is
	// known to be unsatisfiable, wasting processing steps (the baseline
	// the paper's scheduler is compared against, [13]).
	NaiveScheduler bool

	// Primitive costs in coprocessor cycles.
	GetTaskCycles  uint64
	GetSpaceCycles uint64
	PutSpaceCycles uint64
	SwitchCycles   uint64 // additional GetTask cost on an actual task switch
	AccessCycles   uint64 // per cache-line touch on Read/Write hits
}

// DefaultConfig returns the shell parameters used by the paper's first
// instance experiments: small per-coprocessor caches, two-cycle
// synchronization primitives, and a few cycles of message latency.
func DefaultConfig(name string) Config {
	return Config{
		Name:            name,
		ReadCacheLines:  16,
		WriteCacheLines: 16,
		PrefetchDepth:   2,
		MsgLatency:      3,
		GetTaskCycles:   2,
		GetSpaceCycles:  1,
		PutSpaceCycles:  1,
		SwitchCycles:    8,
		AccessCycles:    1,
	}
}

// NoTask is returned by GetTask when every task mapped on the coprocessor
// has finished.
const NoTask = -1

// remoteRef addresses the counterpart access point of a stream: the row
// in a (possibly different) shell's stream table, and which credit slot
// of that row this side occupies.
type remoteRef struct {
	sh   *Shell
	row  int
	slot int
}

// pendingCommit is a PutSpace whose putspace messages are held back until
// its cache flushes complete, preserving the paper's ordering rule
// (Section 5.2, observation 3). Commits drain strictly in order.
type pendingCommit struct {
	bytes       uint32
	flushesLeft int
}

// StreamStats are the per-access-point measurement counters of the stream
// table (paper Section 5.4).
type StreamStats struct {
	GetSpaceCalls  uint64
	Denials        uint64
	PutSpaceCalls  uint64
	BytesCommitted uint64
	BytesRead      uint64
	BytesWritten   uint64
	MsgsSent       uint64
	MsgsReceived   uint64
}

// streamRow is one access point's row in the shell's stream table
// (Section 5.1): window state, space accounting, the remote access
// points, and measurement counters.
type streamRow struct {
	task, port int
	input      bool
	base, size uint32

	point   uint32 // committed point of access, offset within the buffer
	granted uint32 // access window size obtained via GetSpace

	// credit[i] is the known available space with respect to remote i.
	// Consumers have one producer (len 1); producers have one slot per
	// consumer and the effective space is the minimum (the slowest
	// consumer gates the producer).
	credit  []uint32
	remotes []remoteRef

	deniedActive bool
	denied       uint32 // byte count of the last denied GetSpace

	// commits is a head-indexed queue: entries [commitHead:] are pending,
	// the storage before commitHead is dead and reclaimed by resetting
	// both once the queue drains (so steady state never reallocates).
	commits    []pendingCommit
	commitHead int

	// Cached snapshot of segments(0, granted): the window segments are
	// recomputed only after GetSpace/PutSpace move the window, not on
	// every fetch-completion merge (see mergeWindow).
	wsegs  [2]seg
	wcnt   int
	wvalid bool

	stats StreamStats
}

// effSpace is the space value GetSpace compares against.
func (r *streamRow) effSpace() uint32 {
	m := r.credit[0]
	for _, c := range r.credit[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// seg is an absolute memory segment of a (possibly wrapping) window region.
type seg struct {
	addr uint32
	n    uint32
}

// windowSegs returns the absolute memory segments of the whole granted
// window, from the cached snapshot when it is still valid. The snapshot
// is invalidated by moveWindow whenever GetSpace or PutSpace changes the
// window, which is far rarer than the per-line merges that consume it.
func (r *streamRow) windowSegs() ([2]seg, int) {
	if !r.wvalid {
		r.wsegs, r.wcnt = r.segments(0, r.granted)
		r.wvalid = true
	}
	return r.wsegs, r.wcnt
}

// moveWindow invalidates the cached window-segment snapshot; it must be
// called whenever point or granted changes.
func (r *streamRow) moveWindow() { r.wvalid = false }

// segments maps the window region [off, off+n) (relative to the committed
// point) onto at most two absolute memory segments of the cyclic buffer.
func (r *streamRow) segments(off, n uint32) (out [2]seg, cnt int) {
	if n == 0 {
		return out, 0
	}
	start := (r.point + off) % r.size
	first := n
	if start+first > r.size {
		first = r.size - start
	}
	out[0] = seg{addr: r.base + start, n: first}
	cnt = 1
	if first < n {
		out[1] = seg{addr: r.base, n: n - first}
		cnt = 2
	}
	return out, cnt
}

// StepHistBuckets is the number of log2 buckets in the processing-step
// duration histogram: bucket i counts steps of duration [2^i, 2^(i+1)).
const StepHistBuckets = 16

// TaskStats are the per-task measurement counters of the task table.
type TaskStats struct {
	Steps       uint64 // processing steps (GetTask returns)
	Switches    uint64 // actual task switches
	RunCycles   uint64 // cycles the coprocessor spent on this task
	DeniedSteps uint64 // processing steps aborted by a denied GetSpace

	// StepHist is a log2 histogram of processing-step durations (the
	// interval between consecutive GetTask calls while this task held
	// the coprocessor), the paper's step-granularity measure (§5.3).
	StepHist [StepHistBuckets]uint64
}

// StepPercentile returns the approximate p-quantile (0..1) of the step
// duration distribution, as the upper bound of the bucket containing it.
func (s *TaskStats) StepPercentile(p float64) uint64 {
	var total uint64
	for _, c := range s.StepHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(p * float64(total))
	var cum uint64
	for i, c := range s.StepHist {
		cum += c
		if cum > want {
			return 1 << (uint(i) + 1)
		}
	}
	return 1 << StepHistBuckets
}

// taskRow is one task's row in the shell's task table (Section 5.3).
type taskRow struct {
	name     string
	info     uint32
	budget   uint64 // guaranteed continuous execution cycles
	enabled  bool
	finished bool
	rows     []int // port id → stream table row index

	stats TaskStats
}

// Shell is one coprocessor's shell instance.
type Shell struct {
	cfg  Config
	k    *sim.Kernel
	fab  *Fabric
	rows []*streamRow
	tsks []*taskRow

	rcache *cache
	wcache *cache
	// inflight tracks pending line fetches by absolute line address with
	// generation tokens; invalidation and demand fetches cancel entries.
	inflight *inflightSet
	// pool recycles line-sized scratch buffers across demand fetches,
	// prefetches, flushes, and the Paranoid truth check.
	pool *bufPool
	// truth is the reusable Paranoid comparison buffer.
	truth []byte

	// Free lists of pre-bound asynchronous request objects (async.go).
	fetchPool []*fetchReq
	flushPool []*flushReq

	// Transport-layer counters (see TransportStats).
	prefIssued  uint64
	prefDropped uint64
	demandOverl uint64
	// flushRow/flushMem park the PutSpace flush target for issueFlushFn,
	// the pre-bound flushOverlapping callback.
	flushRow     *streamRow
	flushMem     *mem.Memory
	issueFlushFn func(addr uint32, data []byte)

	proc *sim.Proc
	wake *sim.Signal

	current   int // task occupying the coprocessor, NoTask if none
	slotStart uint64
	lastRet   uint64 // cycle at which GetTask last returned
	idle      uint64 // cycles spent blocked in GetTask with nothing runnable
	blocked   bool
	done      bool
}

// Fabric ties the shells of an Eclipse instance together: the shared
// stream memory, buffer allocation, the putspace message network, and
// completion/deadlock tracking.
//
// The fabric supports the two communication-memory organizations of the
// paper's Section 6 tradeoff: the default *centralized* organization
// allocates every stream buffer in the shared SRAM (flexible run-time
// allocation, but all traffic contends on one pair of buses), while the
// *distributed* organization (EnableDistributed) gives every stream its
// own dedicated memory bank (no cross-stream contention, but fixed
// per-stream capacity committed at design time).
type Fabric struct {
	K    *sim.Kernel
	SRAM *mem.Memory

	shells   []*Shell
	alloc    uint32
	total    int // tasks registered
	finished int // tasks finished

	inflightMsgs int // scheduled putspace deliveries + pending flushes

	msgPool        []*psMsg // recycled putspace messages (async.go)
	checkStalledFn func()   // pre-bound checkStalled, avoids method-value allocs

	distributed bool
	bankCfg     mem.Config
	regions     []region // address-space map: which memory serves an address
}

// region maps an address range to the memory bank serving it.
type region struct {
	base, size uint32
	m          *mem.Memory
}

// NewFabric creates an empty fabric over the given kernel and stream
// memory.
func NewFabric(k *sim.Kernel, sram *mem.Memory) *Fabric {
	f := &Fabric{K: k, SRAM: sram}
	f.checkStalledFn = f.checkStalled
	return f
}

// EnableDistributed switches the fabric to distributed stream memories:
// every subsequently connected stream gets a dedicated bank derived from
// bankCfg (Width defaulting to the central SRAM's). Must be called before
// any Connect.
func (f *Fabric) EnableDistributed(bankCfg mem.Config) {
	if len(f.regions) > 0 || f.alloc > 0 {
		panic("shell: EnableDistributed after streams were connected")
	}
	if bankCfg.Width == 0 {
		bankCfg.Width = f.SRAM.Width()
	}
	f.distributed = true
	f.bankCfg = bankCfg
}

// MemFor returns the memory bank serving an absolute stream address.
func (f *Fabric) MemFor(addr uint32) *mem.Memory {
	if !f.distributed {
		return f.SRAM
	}
	for i := range f.regions {
		r := &f.regions[i]
		if addr >= r.base && addr < r.base+r.size {
			return r.m
		}
	}
	panic(fmt.Sprintf("shell: address %d outside every stream bank", addr))
}

// NewShell instantiates a shell from the template configuration.
func (f *Fabric) NewShell(cfg Config) *Shell {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = f.SRAM.Width()
	}
	if cfg.ReadCacheLines <= 0 || cfg.WriteCacheLines <= 0 {
		panic("shell: cache must have at least one line")
	}
	sh := &Shell{
		cfg:      cfg,
		k:        f.K,
		fab:      f,
		rcache:   newCache(cfg.ReadCacheLines, cfg.LineBytes, false),
		wcache:   newCache(cfg.WriteCacheLines, cfg.LineBytes, true),
		inflight: newInflightSet(),
		pool:     newBufPool(cfg.LineBytes),
		wake:     f.K.NewSignal(cfg.Name + ".wake"),
		current:  NoTask,
	}
	sh.issueFlushFn = sh.issueFlush
	f.shells = append(f.shells, sh)
	return sh
}

// Alloc reserves size bytes of stream address space, aligned to cache
// lines so no two buffers ever share a line (which keeps the sync-driven
// coherency free of false sharing). In the centralized organization it
// fails when the on-chip memory is exhausted — the architectural
// constraint that forces small buffers and fine-grained synchronization
// (Section 2.2). In the distributed organization a dedicated bank is
// created per allocation and capacity is bounded only by design-time
// instantiation.
func (f *Fabric) Alloc(size uint32) (uint32, error) {
	line := uint32(f.SRAM.Width())
	base := (f.alloc + line - 1) / line * line
	if f.distributed {
		cfg := f.bankCfg
		cfg.Name = fmt.Sprintf("bank%d", len(f.regions))
		// Banks share the fabric's single address space so cache tags
		// stay unambiguous; each bank's storage covers its own region.
		cfg.Size = int(base) + int(size)
		f.regions = append(f.regions, region{base: base, size: size, m: mem.New(f.K, cfg)})
		f.alloc = base + size
		return base, nil
	}
	if int(base)+int(size) > f.SRAM.Size() {
		return 0, fmt.Errorf("shell: stream memory exhausted: need %d at %d of %d",
			size, base, f.SRAM.Size())
	}
	f.alloc = base + size
	return base, nil
}

// Name returns the shell's configured name.
func (sh *Shell) Name() string { return sh.cfg.Name }

// Config returns the shell's parameters.
func (sh *Shell) Config() Config { return sh.cfg }

// AddTask appends a task to the shell's task table and returns its id.
// budget is the weighted-round-robin budget in cycles (Section 5.3).
func (sh *Shell) AddTask(name string, info uint32, budget uint64) int {
	if budget == 0 {
		budget = 2000
	}
	sh.tsks = append(sh.tsks, &taskRow{name: name, info: info, budget: budget, enabled: true})
	sh.fab.total++
	return len(sh.tsks) - 1
}

// Endpoint identifies one side of a stream during configuration.
type Endpoint struct {
	Shell *Shell
	Task  int
	Port  int
}

// Connect allocates a stream buffer of the given size and wires a
// producer access point to one or more consumer access points, creating
// the stream-table rows in the owning shells. Port ids must be dense and
// registered in order: a task's port p must be connected before port p+1.
func (f *Fabric) Connect(prod Endpoint, cons []Endpoint, size uint32) error {
	if size == 0 {
		return fmt.Errorf("shell: zero stream buffer")
	}
	if len(cons) == 0 {
		return fmt.Errorf("shell: stream without consumers")
	}
	base, err := f.Alloc(size)
	if err != nil {
		return err
	}
	pRow := prod.Shell.addRow(prod.Task, prod.Port, false, base, size, len(cons))
	for i := range pRow.credit {
		pRow.credit[i] = size // an empty buffer is all room for the producer
	}
	for i, c := range cons {
		cRow := c.Shell.addRow(c.Task, c.Port, true, base, size, 1)
		// Consumer's remote is the producer (credit slot i on that side);
		// producer's remote i is this consumer (its only slot).
		cRow.remotes = []remoteRef{{sh: prod.Shell, row: prod.Shell.rowIndex(pRow), slot: i}}
		pRow.remotes = append(pRow.remotes, remoteRef{sh: c.Shell, row: c.Shell.rowIndex(cRow), slot: 0})
	}
	return nil
}

// addRow appends a stream-table row and records it in the task table.
// Ports may be connected in any order; unconnected ports hold -1 and any
// use of one fails loudly.
func (sh *Shell) addRow(task, port int, input bool, base, size uint32, slots int) *streamRow {
	r := &streamRow{
		task: task, port: port, input: input,
		base: base, size: size,
		credit: make([]uint32, slots),
	}
	sh.rows = append(sh.rows, r)
	t := sh.tsks[task]
	for port >= len(t.rows) {
		t.rows = append(t.rows, -1)
	}
	if t.rows[port] != -1 {
		panic(fmt.Sprintf("shell %s: task %d port %d connected twice", sh.cfg.Name, task, port))
	}
	t.rows[port] = len(sh.rows) - 1
	return r
}

func (sh *Shell) rowIndex(r *streamRow) int {
	for i, x := range sh.rows {
		if x == r {
			return i
		}
	}
	panic("shell: row not found")
}

// row resolves a (task, port) pair, failing the simulation on misuse —
// the coprocessor is responsible for passing valid identifiers.
func (sh *Shell) row(task, port int) *streamRow {
	if task < 0 || task >= len(sh.tsks) {
		panic(fmt.Sprintf("shell %s: bad task id %d", sh.cfg.Name, task))
	}
	t := sh.tsks[task]
	if port < 0 || port >= len(t.rows) || t.rows[port] == -1 {
		panic(fmt.Sprintf("shell %s: task %s: bad or unconnected port id %d", sh.cfg.Name, t.name, port))
	}
	return sh.rows[t.rows[port]]
}

// TaskStats returns a snapshot of a task's measurement counters.
func (sh *Shell) TaskStats(task int) TaskStats { return sh.tsks[task].stats }

// StreamStats returns a snapshot of an access point's counters.
func (sh *Shell) StreamStats(task, port int) StreamStats { return sh.row(task, port).stats }

// Space returns the current effective space value of an access point:
// available data for an input port, available room for an output port.
// It is the quantity the paper's Figure 10 plots for input streams.
func (sh *Shell) Space(task, port int) uint32 { return sh.row(task, port).effSpace() }

// ReadCacheStats returns the read cache counters.
func (sh *Shell) ReadCacheStats() CacheStats { return sh.rcache.stats() }

// WriteCacheStats returns the write cache counters.
func (sh *Shell) WriteCacheStats() CacheStats { return sh.wcache.stats() }

// TransportStats are the asynchronous data-transport counters of a shell:
// how the prefetch engine, the demand-miss path, and the scratch-buffer
// pool interacted over the run.
type TransportStats struct {
	PrefetchesIssued    uint64 // asynchronous line fetches booked
	PrefetchesDropped   uint64 // completions cancelled/superseded before merge
	DemandWhileInflight uint64 // demand misses that overlapped a pending prefetch
	Pool                PoolStats
}

// TransportStats returns a snapshot of the transport counters.
func (sh *Shell) TransportStats() TransportStats {
	return TransportStats{
		PrefetchesIssued:    sh.prefIssued,
		PrefetchesDropped:   sh.prefDropped,
		DemandWhileInflight: sh.demandOverl,
		Pool:                sh.pool.stats(),
	}
}

// IdleCycles returns cycles the coprocessor spent with no runnable task.
func (sh *Shell) IdleCycles() uint64 { return sh.idle }

// Utilization returns the busy fraction of the coprocessor so far.
func (sh *Shell) Utilization() float64 {
	now := sh.k.Now()
	if now == 0 {
		return 0
	}
	return 1 - float64(sh.idle)/float64(now)
}

// Paranoid enables an expensive debugging check that compares every Read
// against the memory content and panics on stale cache data. Tests use it
// to pin coherency bugs to their first occurrence.
var Paranoid bool
