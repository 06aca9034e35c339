// Package slab is the result-cache mechanism both serving tiers are
// built on: a byte-budgeted LRU over refcounted, slab-backed immutable
// entries, keyed by content address. Like the paper's coprocessor
// shell, the generic part is built once and each tier keeps only what
// is its own — eclipse-serve's L2 adds tenant attribution,
// eclipse-gateway's L1 the filling backend and its headers — as the
// metadata type M.
//
// Ownership discipline (the FramePool rules, applied to cached
// bytes): an entry's body is an immutable snapshot copied into a pooled
// slab at fill time, never aliased into live frame arenas, a job's
// Result or a proxy buffer. Residency holds one reference; every Get
// acquires another under the cache lock before the entry can be
// evicted, and the slab returns to the pool only when the last
// reference drops. Eviction under byte pressure therefore can never
// truncate or recycle a buffer a response writer is still reading.
package slab

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
)

// Key is the content address of a response: the SHA-256 of a canonical
// preimage of the request (built by internal/serve). The ring routes on
// it, both cache tiers store under it, and it is the HTTP entity tag.
type Key [sha256.Size]byte

// ETag renders the key as a strong HTTP entity tag. Because the key is
// the content address of the request, the tag is valid forever: a
// client that presents it in If-None-Match gets 304 without the server
// even needing a cache entry.
func (k Key) ETag() string { return `"` + hex.EncodeToString(k[:]) + `"` }

// Entry is one immutable cached response: its fields are set at fill
// time and never change, Meta (the tier's own per-entry data) included.
type Entry[M any] struct {
	Key    Key
	Body   []byte // slab-backed; len is the exact body size
	Meta   M
	Charge int64 // bytes this entry counts against the cache budget

	refs       atomic.Int32 // residency counts as 1
	prev, next *Entry[M]    // intrusive LRU ring links
}

// LRU is the cache: one lock domain holding a key map plus an intrusive
// recency ring under a byte budget. root is the ring's sentinel:
// root.next is the most recently used entry, root.prev the eviction
// candidate. Concurrency: Get and Put each take mu once, for a map
// lookup and a ring splice; the slab pool has its own lock.
type LRU[M any] struct {
	mu     sync.Mutex
	m      map[Key]*Entry[M]
	root   Entry[M]
	bytes  int64
	budget int64
	pool   Pool
}

// NewLRU builds a cache with the given total byte budget.
func NewLRU[M any](budgetBytes int64) *LRU[M] {
	c := &LRU[M]{m: map[Key]*Entry[M]{}, budget: budgetBytes}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *LRU[M]) pushFront(e *Entry[M]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *LRU[M]) unlink(e *Entry[M]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// remove unlinks a resident entry and gives its bytes back to the budget.
func (c *LRU[M]) remove(e *Entry[M]) {
	c.unlink(e)
	delete(c.m, e.Key)
	c.bytes -= e.Charge
}

// Budget reports the total byte budget.
func (c *LRU[M]) Budget() int64 { return c.budget }

// Get finds a resident entry, marks it most recently used, and acquires
// a reader reference under the lock, so eviction cannot recycle the
// slab while the caller holds it. The caller must Release it.
func (c *LRU[M]) Get(key Key) (*Entry[M], bool) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		c.mu.Unlock()
		return nil, false
	}
	if c.root.next != e {
		c.unlink(e)
		c.pushFront(e)
	}
	e.refs.Add(1)
	c.mu.Unlock()
	return e, true
}

// Put copies body into a slab-backed immutable entry and inserts it,
// replacing any resident entry for the key and then evicting from the
// LRU tail until the cache is back under budget. charge is what the
// tier says the entry costs (body plus its overhead and metadata
// bytes); one that exceeds the whole budget is skipped (ok false)
// rather than wiping the cache. replaced is the same-key entry the fill
// superseded, if any — it gave its bytes back but is not an eviction;
// evicted are the entries pushed out by byte pressure, oldest first.
// The caller must Release each.
func (c *LRU[M]) Put(key Key, body []byte, meta M, charge int64) (replaced *Entry[M], evicted []*Entry[M], ok bool) {
	if charge > c.budget {
		return nil, nil, false
	}
	slab := c.pool.Get(len(body))
	copy(slab, body)
	e := &Entry[M]{Key: key, Body: slab, Meta: meta, Charge: charge}
	e.refs.Store(1)

	c.mu.Lock()
	if replaced = c.m[key]; replaced != nil {
		c.remove(replaced)
	}
	c.m[key] = e
	c.pushFront(e)
	c.bytes += charge
	for c.bytes > c.budget {
		t := c.root.prev
		c.remove(t)
		evicted = append(evicted, t)
	}
	c.mu.Unlock()
	return replaced, evicted, true
}

// Release drops one reference; the last one returns the slab.
func (c *LRU[M]) Release(e *Entry[M]) {
	if e.refs.Add(-1) == 0 {
		c.pool.Put(e.Body)
	}
}

// Resident reports the bytes charged and the entries held.
func (c *LRU[M]) Resident() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.m)
}
