package copro

import (
	"fmt"

	"eclipse/internal/media"
	"eclipse/internal/mem"
	"eclipse/internal/sim"
)

// Framestore models the off-chip reference-frame storage behind the MC/ME
// coprocessor's dedicated system-bus connection (Figure 8). Pixel values
// are mirrored in media.Frame structures for exact computation, while
// every access is charged against the off-chip memory model, so timing
// reflects DRAM latency and bus contention.
type Framestore struct {
	dram *mem.Memory
	w, h int
	base uint32 // first byte of the frame slots in off-chip memory
	// Three rotating slots: older reference, newer reference, current.
	slots  [3]*media.Frame
	slotOf map[*media.Frame]int
	refs   media.RefChain
	pool   *media.FramePool // recycles frames evicted from the slots

	// fetchFree recycles prediction-fetch contexts (signal + completion
	// closure). FetchRegion blocks until its fetch completes, so a
	// context is back on the free list before the same task can fetch
	// again; the list only grows past one entry if several tasks share a
	// framestore and overlap fetches.
	fetchFree []*fetchCtx
	// storeFree recycles macroblock writeback contexts. StoreMB does not
	// block, so the list grows to the number of writebacks the bus lets
	// overlap and then stays there.
	storeFree []*storeCtx
}

// fetchCtx is the per-FetchRegion completion state, pooled so the
// steady-state prediction path does not allocate a signal and sixteen
// callback closures per macroblock. The fetch is timing only — pixel
// values come from the mirror frames — so no bytes are moved.
type fetchCtx struct {
	sig  *sim.Signal
	done int
	cb   func()
}

// storeCtx is one macroblock writeback in flight: it owns a copy of the
// pixels from StoreMB until the last of the sixteen row writes completes,
// and cb stores one row per completion. The single write bus completes
// transfers in issue order, so counting completions identifies the row.
type storeCtx struct {
	pix  media.MBPixels
	addr uint32 // off-chip address of the row the next completion stores
	rows int    // rows stored so far
	cb   func()
}

// NewFramestore reserves three frame slots in off-chip memory starting at
// base.
func NewFramestore(dram *mem.Memory, w, h int, base uint32) (*Framestore, error) {
	need := int(base) + 3*w*h
	if need > dram.Size() {
		return nil, fmt.Errorf("copro: framestore needs %d bytes, off-chip memory has %d", need, dram.Size())
	}
	return &Framestore{dram: dram, w: w, h: h, base: base, slotOf: map[*media.Frame]int{}}, nil
}

// slotAddr returns the off-chip address of pixel (x, y) in a slot.
func (fs *Framestore) slotAddr(slot, x, y int) uint32 {
	return fs.base + uint32(slot*fs.w*fs.h+y*fs.w+x)
}

// BeginFrame allocates the slot for a new frame being reconstructed,
// reusing the slot of the frame that just fell out of the reference
// chain.
func (fs *Framestore) BeginFrame() *media.Frame {
	if fs.pool == nil {
		fs.pool = media.NewFramePool()
	}
	var used [3]bool
	if fs.refs.A != nil {
		used[fs.slotOf[fs.refs.A]] = true
	}
	if fs.refs.B != nil {
		used[fs.slotOf[fs.refs.B]] = true
	}
	for s := 0; s < 3; s++ {
		if !used[s] {
			// Reclaim the slot from whichever old frame held it; the
			// evicted frame's pixel storage is recycled through the pool.
			for old, os := range fs.slotOf {
				if os == s {
					delete(fs.slotOf, old)
					fs.pool.Put(old)
				}
			}
			f := fs.pool.Get(fs.w, fs.h)
			fs.slotOf[f] = s
			return f
		}
	}
	panic("copro: no free frame slot")
}

// EndFrame records a completed frame in the reference chain.
func (fs *Framestore) EndFrame(f *media.Frame, ftype media.FrameType) {
	fs.refs.Advance(f, ftype)
}

// Refs returns the prediction references for a frame type.
func (fs *Framestore) Refs(ftype media.FrameType) (fwd, bwd *media.Frame) {
	return fs.refs.Refs(ftype)
}

// StoreMB writes a reconstructed macroblock into both the mirror frame
// and the off-chip model (asynchronously — the coprocessor does not wait
// for the writeback, but the bus occupancy is real). It runs with the
// coprocessor's Compute steps still un-played (sim.Proc.Advance), which is
// sound: the mirror frame and the popped context belong to this process
// (completions only hand finished contexts back), and the first
// ScheduleWrite syncs in the port before it books the bus.
func (fs *Framestore) StoreMB(f *media.Frame, mbx, mby int, pix *media.MBPixels) {
	f.SetMB(mbx, mby, pix)
	addr := fs.slotAddr(fs.slotOf[f], mbx*media.MBSize, mby*media.MBSize)
	sc := fs.popStoreCtx()
	sc.pix, sc.addr, sc.rows = *pix, addr, 0
	for row := 0; row < media.MBSize; row++ {
		fs.dram.ScheduleWrite(addr+uint32(row*fs.w), media.MBSize, sc.cb)
	}
}

// popStoreCtx pops (or creates) a pooled writeback context; its pre-bound
// callback returns it to the pool after the sixteenth row.
func (fs *Framestore) popStoreCtx() *storeCtx {
	if sc := popFree(&fs.storeFree); sc != nil {
		return sc
	}
	sc := &storeCtx{}
	sc.cb = func() {
		fs.dram.Poke(sc.addr, sc.pix[sc.rows*media.MBSize:(sc.rows+1)*media.MBSize])
		sc.addr += uint32(fs.w)
		sc.rows++
		if sc.rows == media.MBSize {
			fs.storeFree = append(fs.storeFree, sc)
		}
	}
	return sc
}

// FetchRegion charges the off-chip reads for a 16×16 prediction fetch at
// (x, y) (clamped to the frame), blocking the coprocessor until the last
// row arrives; the row reads are issued together so their latencies
// overlap, as a burst-capable system-bus port would.
func (fs *Framestore) FetchRegion(p *sim.Proc, f *media.Frame, x, y int) {
	slot, ok := fs.slotOf[f]
	if !ok {
		panic("copro: prediction fetch from an unstored frame")
	}
	cx, cy := clampRegion(x, fs.w), clampRegion(y, fs.h)
	fc := popFetchCtx(&fs.fetchFree, p, "mcfetch")
	for r := 0; r < media.MBSize; r++ {
		fs.dram.ScheduleRead(fs.slotAddr(slot, cx, cy+rowClamp(r, cy, fs.h)), media.MBSize, fc.cb)
	}
	p.Wait(fc.sig)
	fs.fetchFree = append(fs.fetchFree, fc)
}

// popFetchCtx pops (or creates) a pooled fetch context with its signal
// and completion closure pre-bound, and arms it for one 16-row fetch.
// The free list is caller-owned so the framestore (prediction fetches)
// and the raw store (ME input fetches) each keep their own pool.
func popFetchCtx(free *[]*fetchCtx, p *sim.Proc, name string) *fetchCtx {
	fc := popFree(free)
	if fc == nil {
		fc = &fetchCtx{sig: p.Kernel().NewSignal(name)}
		fc.cb = func() {
			fc.done++
			if fc.done == media.MBSize {
				fc.sig.Fire()
			}
		}
	}
	fc.done = 0
	return fc
}

// popFree pops the most recently recycled context off a free list, or
// returns nil when the list is empty.
func popFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// clampRegion clamps a region origin so a 16-pixel span stays in frame.
func clampRegion(v, limit int) int {
	if v < 0 {
		return 0
	}
	if v > limit-media.MBSize {
		return limit - media.MBSize
	}
	return v
}

// rowClamp keeps row offsets inside the frame for clamped fetches.
func rowClamp(row, cy, h int) int {
	if cy+row >= h {
		return h - 1 - cy
	}
	return row
}
