package shell

// Scratch-buffer pooling and in-flight fetch tracking for the shell's
// data-transport hot path. Every demand fetch, prefetch, paranoid truth
// check, and write-back flush used to allocate a fresh line-sized []byte
// (and the prefetch bookkeeping churned a map); at millions of line moves
// per simulation those allocations dominated the Go profile. A Shell now
// owns a free list of line-capacity buffers recycled at transfer
// completion, and a small open-addressed set tracks in-flight line
// fetches with a generation token so a stale asynchronous completion can
// never merge over a newer fetch of the same line.

// bufPool is a LIFO free list of scratch buffers with capacity for one
// cache line each. It is intentionally not synchronized: a Shell is
// confined to its kernel's deterministic event loop.
//
// Ownership contract: get hands the caller exclusive use of the buffer;
// the owner (or the completion callback of the async transfer the buffer
// was handed to) must put it back exactly once. A buffer riding on a
// mem.ScheduleRead / mem.ScheduleWrite booking (see async.go) remains
// owned by that transfer until its completion callback runs.
type bufPool struct {
	lineBytes int
	free      [][]byte

	// statistics
	gets  uint64 // total get calls
	news  uint64 // gets that had to allocate (pool empty)
	peak  int    // high-water mark of simultaneously outstanding buffers
	inUse int
}

func newBufPool(lineBytes int) *bufPool {
	return &bufPool{lineBytes: lineBytes}
}

// get returns a buffer of length n (n <= lineBytes), recycled if possible.
func (bp *bufPool) get(n int) []byte {
	bp.gets++
	bp.inUse++
	if bp.inUse > bp.peak {
		bp.peak = bp.inUse
	}
	if n > bp.lineBytes {
		// Oversized request (e.g. a flush span on a misconfigured
		// geometry); serve it but do not pool it on return.
		bp.news++
		return make([]byte, n)
	}
	if k := len(bp.free); k > 0 {
		b := bp.free[k-1]
		bp.free = bp.free[:k-1]
		return b[:n]
	}
	bp.news++
	return make([]byte, n, bp.lineBytes)
}

// put recycles a buffer obtained from get.
func (bp *bufPool) put(b []byte) {
	bp.inUse--
	if cap(b) != bp.lineBytes {
		return // oversized one-off, let the GC have it
	}
	bp.free = append(bp.free, b[:cap(b)])
}

// PoolStats is a snapshot of scratch-buffer pool activity.
type PoolStats struct {
	Gets        uint64 // buffer requests served
	Allocations uint64 // requests that had to allocate
	Peak        int    // max buffers simultaneously in flight
	Outstanding int    // buffers currently in flight (0 after quiesce)
}

func (bp *bufPool) stats() PoolStats {
	return PoolStats{Gets: bp.gets, Allocations: bp.news, Peak: bp.peak, Outstanding: bp.inUse}
}

// ---------------------------------------------------------------------
// In-flight fetch set

// inflightSet tracks pending asynchronous line fetches, keyed by the
// absolute line address. It replaces a map[uint32]bool whose per-line
// insert/delete churn showed up in the transport profile: a small
// open-addressed table with linear probing and backward-shift deletion
// allocates only when it grows.
//
// Each entry carries a generation token. An asynchronous completion must
// present the token it was issued; if the entry has since been cancelled
// (GetSpace invalidation, demand fetch) or re-registered by a newer
// prefetch, the token no longer matches and the completion must drop its
// buffer instead of merging stale data (see prims.go).
type inflightSet struct {
	addrs []uint32
	toks  []uint32
	used  []bool
	n     int
	next  uint32 // token generator
}

func newInflightSet() *inflightSet {
	s := &inflightSet{}
	s.init(16)
	return s
}

func (s *inflightSet) init(capacity int) {
	s.addrs = make([]uint32, capacity)
	s.toks = make([]uint32, capacity)
	s.used = make([]bool, capacity)
	s.n = 0
}

// Len returns the number of pending fetches.
func (s *inflightSet) Len() int { return s.n }

func (s *inflightSet) home(addr uint32) uint32 {
	// Fibonacci hashing on the line address; lines are aligned so the
	// low bits carry no entropy on their own.
	return (addr * 2654435761) & uint32(len(s.addrs)-1)
}

// add registers addr as in flight and returns the generation token the
// completion must present. Re-adding an address invalidates the previous
// generation.
func (s *inflightSet) add(addr uint32) uint32 {
	if s.n*4 >= len(s.addrs)*3 {
		s.grow()
	}
	s.next++
	tok := s.next
	i := s.home(addr)
	mask := uint32(len(s.addrs) - 1)
	for s.used[i] {
		if s.addrs[i] == addr {
			s.toks[i] = tok
			return tok
		}
		i = (i + 1) & mask
	}
	s.addrs[i] = addr
	s.toks[i] = tok
	s.used[i] = true
	s.n++
	return tok
}

// contains reports whether addr has a pending fetch.
func (s *inflightSet) contains(addr uint32) bool {
	_, ok := s.find(addr)
	return ok
}

// matches reports whether addr is pending with exactly this generation.
func (s *inflightSet) matches(addr, tok uint32) bool {
	i, ok := s.find(addr)
	return ok && s.toks[i] == tok
}

func (s *inflightSet) find(addr uint32) (uint32, bool) {
	if s.n == 0 {
		return 0, false
	}
	i := s.home(addr)
	mask := uint32(len(s.addrs) - 1)
	for s.used[i] {
		if s.addrs[i] == addr {
			return i, true
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// remove cancels the pending fetch for addr (no-op when absent), using
// backward-shift deletion so probe chains stay dense without tombstones.
func (s *inflightSet) remove(addr uint32) {
	i, ok := s.find(addr)
	if !ok {
		return
	}
	mask := uint32(len(s.addrs) - 1)
	s.used[i] = false
	s.n--
	j := i
	for {
		j = (j + 1) & mask
		if !s.used[j] {
			return
		}
		h := s.home(s.addrs[j])
		// j's entry may move into the hole at i only if its home
		// position does not lie strictly between the hole and j
		// (cyclically); otherwise the probe chain would break.
		if (j-h)&mask >= (j-i)&mask {
			s.addrs[i], s.toks[i] = s.addrs[j], s.toks[j]
			s.used[i] = true
			s.used[j] = false
			i = j
		}
	}
}

func (s *inflightSet) grow() {
	oldAddrs, oldToks, oldUsed := s.addrs, s.toks, s.used
	s.init(len(oldAddrs) * 2)
	mask := uint32(len(s.addrs) - 1)
	for i, u := range oldUsed {
		if !u {
			continue
		}
		j := s.home(oldAddrs[i])
		for s.used[j] {
			j = (j + 1) & mask
		}
		s.addrs[j] = oldAddrs[i]
		s.toks[j] = oldToks[i]
		s.used[j] = true
		s.n++
	}
}
