package slab

import (
	"math/bits"
	"sync"
)

// Pool recycles byte buffers in power-of-two size classes with a
// bounded free list per class, the serving-side sibling of the shell's
// bufPool: fills under eviction churn (and per-request response bodies)
// reuse recycled slabs instead of allocating. Slabs above maxPooledSlab
// go straight to the GC. The zero value is ready to use.
type Pool struct {
	mu      sync.Mutex
	classes [slabClasses][][]byte
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

// Get returns a slab of length n (capacity rounded up to the class).
// Contents are NOT zeroed; callers must overwrite all n bytes.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	cl := slabClass(n)
	if n <= maxPooledSlab {
		p.mu.Lock()
		if l := p.classes[cl]; len(l) > 0 {
			s := l[len(l)-1]
			p.classes[cl] = l[:len(l)-1]
			p.mu.Unlock()
			return s[:n]
		}
		p.mu.Unlock()
	}
	return make([]byte, n, 1<<cl)
}

// Put returns a slab to its class; mis-sized or surplus slabs are
// dropped for the GC. The caller must be the buffer's sole owner.
func (p *Pool) Put(b []byte) {
	cp := cap(b)
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
