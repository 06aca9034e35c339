package media

import "sync"

// FramePool is a free list for per-GOP temporary frames. Decoder loops
// that assemble frames only to use them as motion-compensation
// references (and then drop them when the reference chain advances) can
// recycle the pixel storage instead of allocating a fresh frame per
// coded frame.
//
// Ownership rule: a frame handed to Put must have no other live
// references — the pool will hand it back from a future Get with its
// pixels zeroed, exactly like a fresh NewFrame.
//
// FramePool is not safe for concurrent use; give each goroutine its
// own pool.
type FramePool struct {
	free []*Frame
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// Get returns a zeroed w×h frame, reusing pooled storage of matching
// dimensions when available.
func (p *FramePool) Get(w, h int) *Frame {
	for i := len(p.free) - 1; i >= 0; i-- {
		f := p.free[i]
		if f.W != w || f.H != h {
			continue
		}
		p.free[i] = p.free[len(p.free)-1]
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
		for j := range f.Pix {
			f.Pix[j] = 0
		}
		return f
	}
	return NewFrame(w, h)
}

// Put returns a frame to the pool. Put(nil) is a no-op, so callers can
// unconditionally recycle possibly-absent references.
func (p *FramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	p.free = append(p.free, f)
}

// SyncFramePool is a FramePool safe for concurrent use: a process-wide
// frame free list shared across requests, so a long-running server
// reuses pixel storage between jobs instead of allocating fresh frames
// per request. The same ownership rule as FramePool applies: a frame
// handed to Put must have no other live references.
type SyncFramePool struct {
	mu   sync.Mutex
	pool FramePool
	max  int // bound on retained frames; 0 = unbounded
	out  int // frames handed out via Get and not yet returned via Put

	// resident marks frames currently on the free list. A second Put of
	// a resident frame would enter it on the free list twice, and two
	// later Gets would hand the same *Frame to two owners — silent pixel
	// corruption. The guard makes the duplicate Put a counted no-op.
	resident   map[*Frame]struct{}
	doublePuts uint64
}

// NewSyncFramePool returns a concurrency-safe pool retaining at most
// maxRetained frames (0 for no bound).
func NewSyncFramePool(maxRetained int) *SyncFramePool {
	return &SyncFramePool{max: maxRetained}
}

// Get returns a zeroed w×h frame, reusing pooled storage when available.
func (p *SyncFramePool) Get(w, h int) *Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out++
	f := p.pool.Get(w, h)
	delete(p.resident, f)
	return f
}

// Put returns a frame (or nil, a no-op) to the pool, dropping it when
// the retention bound is reached. Putting a frame that is already
// resident is a broken-ownership bug in the caller; instead of
// corrupting the free list (the same frame handed to two future Gets)
// the duplicate is dropped and counted — see DoublePuts.
func (p *SyncFramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	p.mu.Lock()
	if _, dup := p.resident[f]; dup {
		p.doublePuts++
		p.mu.Unlock()
		return
	}
	p.out--
	if p.max == 0 || len(p.pool.free) < p.max {
		p.pool.Put(f)
		if p.resident == nil {
			p.resident = make(map[*Frame]struct{})
		}
		p.resident[f] = struct{}{}
	}
	p.mu.Unlock()
}

// PutAll recycles a batch of frames, ignoring nils.
func (p *SyncFramePool) PutAll(frames []*Frame) {
	for _, f := range frames {
		p.Put(f)
	}
}

// Retained reports how many frames the pool currently holds.
func (p *SyncFramePool) Retained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pool.free)
}

// Outstanding reports Get calls minus Put calls: the frames currently
// checked out of the pool. Leak detectors (lifecycle tests that cancel
// or preempt jobs mid-pipeline) assert this returns to zero once every
// job using the pool has unwound. Frames allocated elsewhere and handed
// to Put make the count go negative, so keep pool traffic symmetric.
func (p *SyncFramePool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out
}
