package shell

import (
	"fmt"

	"eclipse/internal/sim"
)

// This file implements the five task-level interface primitives (paper
// Section 3.2) and the shell-side machinery behind them: the distributed
// GetSpace/PutSpace synchronization with putspace messages (Section 5.1),
// cached data transport with sync-driven coherency and prefetching
// (Section 5.2), and the weighted round-robin "best guess" task scheduler
// (Section 5.3). All primitives must be called from the bound coprocessor
// process; they consume simulated time on that process.

// Bind attaches the coprocessor process that will issue the primitives.
func (sh *Shell) Bind(p *sim.Proc) { sh.proc = p }

// Proc returns the bound coprocessor process.
func (sh *Shell) Proc() *sim.Proc { return sh.proc }

// Compute charges function-specific computation time to the coprocessor —
// the stand-in for the hardwired datapath doing actual work.
// Advance, not Delay: Compute touches no state at all, and what the model
// does before its next primitive is datapath-private (its registers and
// frame mirrors; no callback or other process reads them).
func (sh *Shell) Compute(cycles uint64) {
	if cycles > 0 {
		sh.proc.Advance(cycles)
	}
}

// Now returns the coprocessor's logical time (sim.Proc.Now): the kernel
// cycle plus the Compute and cache-hit cycles not yet played.
func (sh *Shell) Now() uint64 { return sh.proc.Now() }

// ---------------------------------------------------------------------
// Task scheduling (GetTask)

// runnable applies the scheduler's "best guess" (Section 5.3): a task is
// worth dispatching unless its most recent GetSpace denial still cannot
// be satisfied with the locally known space values.
func (sh *Shell) runnable(task int) bool {
	t := sh.tsks[task]
	if !t.enabled || t.finished {
		return false
	}
	if sh.cfg.NaiveScheduler {
		return true
	}
	for _, ri := range t.rows {
		if ri == -1 {
			continue
		}
		r := sh.rows[ri]
		if r.deniedActive && r.effSpace() < r.denied {
			return false
		}
	}
	return true
}

// GetTask returns the next task the coprocessor should execute, blocking
// while no task is runnable. ok is false once every task mapped on this
// coprocessor has finished, upon which the coprocessor process should
// terminate. The scheduler is weighted round-robin: the current task
// keeps the coprocessor while it is runnable and within its cycle budget;
// otherwise the scan resumes after the current task.
func (sh *Shell) GetTask() (task int, info uint32, ok bool) {
	now := sh.proc.Now() // the step ends after its un-played Compute
	if sh.current != NoTask {
		t := sh.tsks[sh.current]
		t.stats.RunCycles += now - sh.lastRet
		t.stats.StepHist[stepBucket(now-sh.lastRet)]++
	}
	sh.proc.Delay(sh.cfg.GetTaskCycles)

	for {
		if sh.allFinished() {
			sh.done = true
			sh.current = NoTask
			return NoTask, 0, false
		}
		// Current task continues while runnable and within budget.
		if sh.current != NoTask && sh.runnable(sh.current) {
			t := sh.tsks[sh.current]
			if sh.proc.Now()-sh.slotStart < t.budget || !sh.anyOtherRunnable(sh.current) {
				if sh.proc.Now()-sh.slotStart >= t.budget {
					sh.slotStart = sh.proc.Now() // work-conserving budget refresh
				}
				t.stats.Steps++
				sh.lastRet = sh.proc.Now()
				return sh.current, t.info, true
			}
		}
		// Round-robin scan for the next runnable task.
		n := len(sh.tsks)
		start := sh.current + 1
		if sh.current == NoTask {
			start = 0
		}
		picked := NoTask
		for i := 0; i < n; i++ {
			cand := (start + i) % n
			if sh.runnable(cand) {
				picked = cand
				break
			}
		}
		if picked != NoTask {
			if picked != sh.current {
				sh.proc.Delay(sh.cfg.SwitchCycles)
				sh.tsks[picked].stats.Switches++
			}
			sh.current = picked
			sh.slotStart = sh.proc.Now()
			t := sh.tsks[picked]
			t.stats.Steps++
			sh.lastRet = sh.proc.Now()
			return picked, t.info, true
		}
		// Nothing runnable: idle until a putspace message arrives.
		idleFrom := sh.proc.Now()
		sh.blocked = true
		sh.fab.checkStalled()
		sh.proc.Wait(sh.wake)
		sh.blocked = false
		sh.idle += sh.proc.Now() - idleFrom
	}
}

// stepBucket maps a step duration onto its log2 histogram bucket.
func stepBucket(d uint64) int {
	b := 0
	for d > 1 && b < StepHistBuckets-1 {
		d >>= 1
		b++
	}
	return b
}

// anyOtherRunnable reports whether a task other than cur could run.
func (sh *Shell) anyOtherRunnable(cur int) bool {
	for i := range sh.tsks {
		if i != cur && sh.runnable(i) {
			return true
		}
	}
	return false
}

// allFinished reports whether every task on this shell has finished.
func (sh *Shell) allFinished() bool {
	for _, t := range sh.tsks {
		if !t.finished {
			return false
		}
	}
	return true
}

// TaskDone marks a task finished (it will never be scheduled again). The
// fabric stops the simulation once every task of every shell is done.
func (sh *Shell) TaskDone(task int) {
	// The finished counts are fabric-wide (checkStalled, Stop), and the run
	// must not end before the task's last Compute has elapsed.
	sh.proc.Sync()
	t := sh.tsks[task]
	if t.finished {
		return
	}
	t.finished = true
	sh.fab.finished++
	if sh.fab.finished == sh.fab.total {
		sh.k.Stop()
	}
}

// ---------------------------------------------------------------------
// Stream synchronization (GetSpace / PutSpace)

// GetSpace asks whether n bytes of data (input port) or room (output
// port) are available ahead of the access point. On success the access
// window is extended to at least n bytes and, for input ports, cached
// lines covering the window extension are invalidated so subsequent reads
// observe fresh data (Section 5.2, observation 2).
func (sh *Shell) GetSpace(task, port int, n uint32) bool {
	sh.proc.Delay(sh.cfg.GetSpaceCycles)
	r := sh.row(task, port)
	if r.task != task {
		panic("shell: stream table corrupted")
	}
	r.stats.GetSpaceCalls++
	if n > r.size {
		// Can never succeed: treat as a configuration error, since the
		// coprocessor would spin forever.
		sh.k.Fail(fmt.Errorf("shell %s: task %s port %d: GetSpace(%d) exceeds buffer size %d",
			sh.cfg.Name, sh.tsks[task].name, port, n, r.size))
		return false
	}
	if n > r.effSpace() {
		r.stats.Denials++
		r.deniedActive = true
		r.denied = n
		sh.tsks[task].stats.DeniedSteps++
		return false
	}
	r.deniedActive = false
	if n > r.granted {
		ext := r.granted
		r.granted = n
		r.moveWindow()
		if r.input {
			// Invalidate the window extension in the read cache and
			// cancel any stale prefetch still in flight there (its data
			// may predate the producer's flush; the generation token
			// makes its completion drop the buffer unmerged).
			segs, cnt := r.segments(ext, n-ext)
			for i := 0; i < cnt; i++ {
				lo, hi := segs[i].addr, segs[i].addr+segs[i].n
				sh.rcache.invalidateRange(lo, hi)
				for a := sh.rcache.lineAddr(lo); a < hi; a += uint32(sh.cfg.LineBytes) {
					sh.inflight.remove(a)
				}
			}
			if sh.cfg.PrefetchDepth > 0 {
				sh.prefetch(r, ext, n-ext)
			}
		}
	}
	return true
}

// PutSpace commits n bytes: consumed data on an input port (freeing room
// for the producer) or produced data on an output port (making it
// available to consumers). The access point moves ahead by n. For output
// ports, dirty cache lines covering the committed region are flushed
// first, and the putspace messages to the remote shells are held until
// the flush completes so a consumer can never observe the space before
// the data (Section 5.2, observation 3).
func (sh *Shell) PutSpace(task, port int, n uint32) {
	sh.proc.Delay(sh.cfg.PutSpaceCycles)
	r := sh.row(task, port)
	if n > r.granted {
		sh.k.Fail(fmt.Errorf("shell %s: task %s port %d: PutSpace(%d) beyond granted window %d",
			sh.cfg.Name, sh.tsks[task].name, port, n, r.granted))
		return
	}
	r.stats.PutSpaceCalls++
	r.stats.BytesCommitted += uint64(n)

	flushes := 0
	if !r.input && n > 0 {
		segs, cnt := r.segments(0, n)
		// Park the flush target for the pre-bound issueFlush callback
		// (see async.go); flushOverlapping is synchronous, so the parked
		// state cannot be observed across PutSpace calls.
		sh.flushRow = r
		for i := 0; i < cnt; i++ {
			sh.flushMem = sh.fab.MemFor(segs[i].addr)
			flushes += sh.wcache.flushOverlapping(segs[i].addr, segs[i].addr+segs[i].n, sh.issueFlushFn)
		}
		sh.flushRow, sh.flushMem = nil, nil
		sh.fab.inflightMsgs += flushes
	}

	// Advance the access point and reduce local space.
	r.point = (r.point + n) % r.size
	r.granted -= n
	r.moveWindow()
	for i := range r.credit {
		r.credit[i] -= n
	}
	if r.commitHead > 0 && r.commitHead == len(r.commits) {
		r.commits = r.commits[:0]
		r.commitHead = 0
	}
	r.commits = append(r.commits, pendingCommit{bytes: n, flushesLeft: flushes})
	sh.drainCommits(r)
}

// commitFlushed notes one completed flush write for the oldest pending
// commit that still waits on flushes, then sends any newly released
// putspace messages (strictly in commit order).
func (sh *Shell) commitFlushed(r *streamRow) {
	for i := r.commitHead; i < len(r.commits); i++ {
		if r.commits[i].flushesLeft > 0 {
			r.commits[i].flushesLeft--
			break
		}
	}
	sh.drainCommits(r)
}

// drainCommits sends putspace messages for every leading commit whose
// flushes have completed.
func (sh *Shell) drainCommits(r *streamRow) {
	for r.commitHead < len(r.commits) && r.commits[r.commitHead].flushesLeft == 0 {
		n := r.commits[r.commitHead].bytes
		r.commitHead++
		if n == 0 {
			continue
		}
		for _, rem := range r.remotes {
			r.stats.MsgsSent++
			sh.fab.inflightMsgs++
			m := sh.fab.newMsg()
			m.dst, m.row, m.slot, m.n = rem.sh, rem.row, rem.slot, n
			sh.k.Schedule(sh.cfg.MsgLatency, m.fire)
		}
	}
	if r.commitHead > 0 && r.commitHead == len(r.commits) {
		r.commits = r.commits[:0]
		r.commitHead = 0
	}
}

// recvPutSpace handles an incoming putspace message: credit the local
// space value and wake the coprocessor in case it was blocked on this
// space (Section 5.1, Figure 7).
func (sh *Shell) recvPutSpace(row, slot int, n uint32) {
	r := sh.rows[row]
	r.credit[slot] += n
	r.stats.MsgsReceived++
	if r.credit[slot] > r.size {
		sh.k.Fail(fmt.Errorf("shell %s: space overflow on row %d (%d > %d)",
			sh.cfg.Name, row, r.credit[slot], r.size))
		return
	}
	sh.wake.Fire()
	// The woken coprocessor is guaranteed to run later in this cycle;
	// mark it unblocked immediately so a sibling that blocks in the same
	// cycle cannot observe a stale "everyone is blocked" state (it will
	// re-block, and re-trigger the stall check, if it finds nothing
	// runnable). Then re-check for a stall this message failed to
	// resolve, after the wakeups have settled.
	sh.blocked = false
	sh.k.Schedule(0, sh.fab.checkStalledFn)
}

// ---------------------------------------------------------------------
// Data transport (Read / Write)

// Read copies n bytes at the given offset inside the granted window of an
// input port into buf, moving data through the read cache: hits cost
// AccessCycles per line, misses fetch the line over the read bus.
func (sh *Shell) Read(task, port int, offset uint32, buf []byte) {
	r := sh.row(task, port)
	if !r.input {
		sh.k.Fail(fmt.Errorf("shell %s: Read on output port %d of task %s", sh.cfg.Name, port, sh.tsks[task].name))
		return
	}
	n := uint32(len(buf))
	if offset+n > r.granted {
		sh.k.Fail(fmt.Errorf("shell %s: task %s port %d: Read [%d,%d) outside granted window %d",
			sh.cfg.Name, sh.tsks[task].name, port, offset, offset+n, r.granted))
		return
	}
	r.stats.BytesRead += uint64(n)
	if sh.inflight.Len() > 0 {
		// A fetch completion may rewrite the read cache between the kernel's
		// now and this process's logical now: look up from a synced clock.
		sh.proc.Sync()
	}
	segs, cnt := r.segments(offset, n)
	got := 0
	for i := 0; i < cnt; i++ {
		sh.readSeg(r, segs[i], buf[got:got+int(segs[i].n)])
		got += int(segs[i].n)
	}
	if Paranoid {
		got = 0
		for i := 0; i < cnt; i++ {
			truth := sh.truthBuf(int(segs[i].n))
			sh.fab.MemFor(segs[i].addr).Peek(segs[i].addr, truth)
			for j := range truth {
				if truth[j] != buf[got+j] {
					panic(fmt.Sprintf("shell %s task %s port %d: stale read at abs %d (cache %#x, sram %#x) cycle %d",
						sh.cfg.Name, sh.tsks[task].name, port, segs[i].addr+uint32(j), buf[got+j], truth[j], sh.k.Now()))
				}
			}
			got += int(segs[i].n)
		}
	}
	if sh.cfg.PrefetchDepth > 0 {
		sh.prefetch(r, offset+n, uint32(sh.cfg.PrefetchDepth*sh.cfg.LineBytes))
	}
}

// truthBuf returns the reusable Paranoid comparison buffer, grown to at
// least n bytes. Read is not reentrant per shell, so one buffer suffices.
func (sh *Shell) truthBuf(n int) []byte {
	if cap(sh.truth) < n {
		sh.truth = make([]byte, n)
	}
	return sh.truth[:n]
}

// mergeWindow installs fetched line data, marking valid exactly the bytes
// inside the row's current granted window (bytes outside the window may
// have been fetched mid-update by the producer). The window segments come
// from the row's cached snapshot: they change only on GetSpace/PutSpace,
// while this merge runs once per fetched line.
func (sh *Shell) mergeWindow(r *streamRow, base uint32, data []byte) *cacheLine {
	line := uint32(len(data))
	wsegs, wcnt := r.windowSegs()
	var ln *cacheLine
	merged := false
	for i := 0; i < wcnt; i++ {
		lo, hi := wsegs[i].addr, wsegs[i].addr+wsegs[i].n
		if lo < base {
			lo = base
		}
		if hi > base+line {
			hi = base + line
		}
		if lo >= hi {
			continue
		}
		ln = sh.rcache.merge(base, data, lo-base, hi-base)
		merged = true
	}
	if !merged {
		ln = sh.rcache.merge(base, data, 0, 0)
	}
	return ln
}

// readSeg serves one contiguous absolute segment through the read cache.
// The segment is always inside the granted window, so a full per-byte
// valid cover is a hit; otherwise the line is (re)fetched over the read
// bus and merged with window-bounded validity.
func (sh *Shell) readSeg(r *streamRow, s seg, buf []byte) {
	line := uint32(sh.cfg.LineBytes)
	addr := s.addr
	remaining := s.n
	for remaining > 0 {
		base := sh.rcache.lineAddr(addr)
		inLine := base + line - addr
		if inLine > remaining {
			inLine = remaining
		}
		ln := sh.rcache.lookup(addr)
		if ln == nil || !ln.covers(addr-base, addr-base+inLine) {
			// Miss: fetch the whole line over the read bus (blocking).
			// Completions share the scratch pool: play earlier hits out first.
			sh.proc.Sync()
			sh.rcache.misses++
			if sh.inflight.contains(base) {
				sh.demandOverl++
			}
			m := sh.fab.MemFor(base)
			end := base + line
			if int(end) > m.Size() {
				end = uint32(m.Size())
			}
			tmp := sh.pool.get(int(end - base))
			m.ReadAccess(sh.proc, base, tmp)
			// Cancel any prefetch still in flight for this line only now,
			// after the blocking fetch completed: a prefetch completion
			// firing while we were blocked merged with its own (still
			// valid) token and removed itself, and cancelling before the
			// fetch would let a later re-registered prefetch generation
			// alias this address and double-merge a stale pooled buffer.
			sh.inflight.remove(base)
			sh.rcache.evict(addr, nil)
			ln = sh.mergeWindow(r, base, tmp)
			copy(buf[:inLine], ln.data[addr-base:addr-base+inLine])
			sh.pool.put(tmp)
		} else {
			sh.rcache.hits++
			// Latch the data before charging the access time: while the
			// coprocessor is delayed, an aliasing prefetch completion may
			// replace this slot, and the value delivered must be the one
			// that was valid at access time (as a hardware latch would).
			copy(buf[:inLine], ln.data[addr-base:addr-base+inLine])
			// Advance: up to the next sync Read touches the read cache, the
			// row's window and this shell's counters. Only a fetch completion
			// that still matches the in-flight set also writes the read
			// cache; the set is empty and only this process adds to it
			// (prefetch, which syncs first). Otherwise park as before.
			sh.proc.Advance(sh.cfg.AccessCycles)
			if sh.inflight.Len() > 0 {
				sh.proc.Sync()
			}
		}
		buf = buf[inLine:]
		addr += inLine
		remaining -= inLine
	}
}

// prefetch issues asynchronous line fetches for the window region
// [from, from+span) of an input row, clipped to the granted window, so
// later reads hit in the cache (Section 5.2 "stream prefetches"). The
// fetched data is merged with the validity bounds of the window as it
// stands at completion time.
func (sh *Shell) prefetch(r *streamRow, from, span uint32) {
	if from >= r.granted {
		return
	}
	if from+span > r.granted {
		span = r.granted - from
	}
	segs, cnt := r.segments(from, span)
	line := uint32(sh.cfg.LineBytes)
	for i := 0; i < cnt; i++ {
		lo := sh.rcache.lineAddr(segs[i].addr)
		hi := segs[i].addr + segs[i].n
		for a := lo; a < hi; a += line {
			if sh.inflight.contains(a) {
				continue
			}
			if ln := sh.rcache.lookup(a); ln != nil && ln.covers(0, line) {
				continue
			}
			m := sh.fab.MemFor(a)
			end := a + line
			if int(end) > m.Size() {
				end = uint32(m.Size())
			}
			// Book the transfer with a pooled, pre-bound fetch request:
			// fr.complete Peeks the bytes at the modeled completion cycle
			// and merges them iff generation tok is still wanted. Completions
			// share the free list and the pool, so Read's hits play out first;
			// the checks above hold across that park (in-flight set empty).
			sh.proc.Sync()
			fr := sh.newFetch()
			fr.r, fr.m, fr.addr = r, m, a
			fr.tok = sh.inflight.add(a)
			fr.buf = sh.pool.get(int(end - a))
			sh.prefIssued++
			m.ScheduleRead(a, len(fr.buf), fr.fire)
		}
	}
}

// Write stores data at the given offset inside the granted window of an
// output port through the write cache: lines are allocated without
// fetching (per-byte dirty masks), so a write costs AccessCycles per line
// unless it evicts a dirty line.
func (sh *Shell) Write(task, port int, offset uint32, data []byte) {
	r := sh.row(task, port)
	if r.input {
		sh.k.Fail(fmt.Errorf("shell %s: Write on input port %d of task %s", sh.cfg.Name, port, sh.tsks[task].name))
		return
	}
	n := uint32(len(data))
	if offset+n > r.granted {
		sh.k.Fail(fmt.Errorf("shell %s: task %s port %d: Write [%d,%d) outside granted window %d",
			sh.cfg.Name, sh.tsks[task].name, port, offset, offset+n, r.granted))
		return
	}
	r.stats.BytesWritten += uint64(n)
	segs, cnt := r.segments(offset, n)
	used := 0
	for i := 0; i < cnt; i++ {
		sh.writeSeg(segs[i], data[used:used+int(segs[i].n)])
		used += int(segs[i].n)
	}
}

// writeSeg stores one contiguous absolute segment into the write cache.
func (sh *Shell) writeSeg(s seg, data []byte) {
	line := uint32(sh.cfg.LineBytes)
	addr := s.addr
	remaining := s.n
	for remaining > 0 {
		base := sh.wcache.lineAddr(addr)
		inLine := base + line - addr
		if inLine > remaining {
			inLine = remaining
		}
		ln := sh.wcache.lookup(addr)
		if ln == nil {
			// Allocate without fetch; evict a conflicting dirty line
			// synchronously (the coprocessor pays, like a full write
			// buffer in hardware).
			sh.wcache.evict(addr, func(a uint32, d []byte) {
				sh.fab.MemFor(a).WriteAccess(sh.proc, a, d)
			})
			ln = sh.wcache.slot(addr)
			ln.valid = true
			ln.tag = base
			maskClear(ln.mask)
		}
		// Advance: only this process touches the write cache (the eviction
		// above syncs in the port; PutSpace's flush copies at issue time).
		sh.proc.Advance(sh.cfg.AccessCycles)
		off := addr - base
		copy(ln.data[off:off+inLine], data[:inLine])
		ln.markDirty(off, off+inLine)
		data = data[inLine:]
		addr += inLine
		remaining -= inLine
	}
}

// ---------------------------------------------------------------------
// Fabric-level stall detection

// checkStalled fails the simulation when every coprocessor is blocked in
// GetTask, no putspace messages or flushes are in flight, and tasks
// remain unfinished: the modeled application has deadlocked (e.g. a
// stream buffer too small for its communication pattern).
func (f *Fabric) checkStalled() {
	if f.finished == f.total || f.inflightMsgs > 0 {
		return
	}
	for _, sh := range f.shells {
		if !sh.blocked && !sh.done {
			return
		}
	}
	f.K.Fail(fmt.Errorf("shell: all %d coprocessors stalled with %d/%d tasks finished (application deadlock)",
		len(f.shells), f.finished, f.total))
}
