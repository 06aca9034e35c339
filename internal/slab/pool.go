package slab

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool recycles byte buffers in power-of-two size classes with a
// bounded free list per class, the serving-side sibling of the shell's
// bufPool: fills under eviction churn (and per-request response bodies)
// reuse recycled slabs instead of allocating. Slabs above maxPooledSlab
// go straight to the GC. The zero value is ready to use.
type Pool struct {
	mu      sync.Mutex
	classes [slabClasses][][]byte
	out     atomic.Int64 // Get calls not yet matched by a Put
}

const (
	slabClasses      = 23      // classes up to 1<<22 = 4 MiB
	maxPooledSlab    = 1 << 22 // bigger bodies are not worth retaining
	slabsPerClassCap = 8
)

// slabClass returns the class whose capacity 1<<class fits n.
func slabClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slab of length n, its capacity rounded up to the class
// when n is poolable and exactly n above maxPooledSlab, which Put would
// drop anyway. Contents are NOT zeroed; callers must overwrite all n
// bytes.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	p.out.Add(1)
	if n > maxPooledSlab {
		return make([]byte, n)
	}
	cl := slabClass(n)
	p.mu.Lock()
	if l := p.classes[cl]; len(l) > 0 {
		s := l[len(l)-1]
		p.classes[cl] = l[:len(l)-1]
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<cl)
}

// Put returns a slab to its class; mis-sized or surplus slabs are
// dropped for the GC. The caller must be the buffer's sole owner.
func (p *Pool) Put(b []byte) {
	cp := cap(b)
	if cp > 0 {
		p.out.Add(-1)
	}
	if cp == 0 || cp > maxPooledSlab || cp&(cp-1) != 0 {
		return
	}
	cl := slabClass(cp)
	p.mu.Lock()
	if len(p.classes[cl]) < slabsPerClassCap {
		p.classes[cl] = append(p.classes[cl], b[:0])
	}
	p.mu.Unlock()
}

// Outstanding reports how many slabs from Get have not come back to Put.
func (p *Pool) Outstanding() int64 { return p.out.Load() }

// Grow moves buf's bytes into a slab of p with room for n and returns
// buf's own slab to p.
func (p *Pool) Grow(buf []byte, n int) []byte {
	grown := p.Get(n)
	copy(grown, buf)
	p.Put(buf)
	return grown[:len(buf)]
}

// ReadCapped reads r to EOF into a slab of p that the caller then owns.
// A length in [0, max] (a Content-Length the cap admits) sizes it once;
// an unknown or larger one starts at 4 KiB and doubles up to max+1. Past
// max it returns the first max+1 bytes and true, the rest of r unread; on
// a read error, nil, with the slab back in p.
func (p *Pool) ReadCapped(r io.Reader, length, max int64) ([]byte, bool, error) {
	size := min(4<<10, max+1)
	if length >= 0 && length <= max {
		size = length + 1
	}
	buf := p.Get(int(size))[:0]
	for int64(len(buf)) <= max {
		if len(buf) == cap(buf) {
			buf = p.Grow(buf, int(min(2*int64(cap(buf)), max+1)))
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), int(max+1))])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, int64(len(buf)) > max, nil
		}
		if err != nil {
			p.Put(buf)
			return nil, false, err
		}
	}
	return buf, true, nil
}
