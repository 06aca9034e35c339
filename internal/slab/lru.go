// Package slab is the result-cache mechanism both serving tiers are
// built on: a byte-budgeted sharded LRU over refcounted, slab-backed
// immutable entries, keyed by content address. Like the paper's
// coprocessor shell, the generic part is built once and each tier keeps
// only what is its own — eclipse-serve's L2 adds tenant attribution,
// eclipse-gateway's L1 adds freshness — as the metadata type M.
//
// Ownership discipline (the FramePool/dispPool rules, applied to cached
// bytes): an entry's body is an immutable snapshot copied into a pooled
// slab at fill time, never aliased into live frame arenas, a job's
// Result or a proxy buffer. Residency holds one reference; every Get
// acquires another under the shard lock before the entry can be
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

// ShardCount is the number of independently locked shards; a power of
// two so the shard index is a bit mask over the key's first byte.
const ShardCount = 16

// Entry is one immutable cached response: its fields are set at fill
// time and never change. Meta is the tier's own per-entry data (a
// pointer type if it carries state the tier mutates after the fill).
type Entry[M any] struct {
	Key    Key
	Body   []byte // slab-backed; len is the exact body size
	Meta   M
	Charge int64 // bytes this entry counts against its shard's budget

	refs       atomic.Int32 // residency counts as 1
	prev, next *Entry[M]    // intrusive LRU ring links
}

// shard is one lock domain: a key map plus an intrusive LRU ring under
// a byte budget. root is the ring's sentinel: root.next is the most
// recently used entry, root.prev the eviction candidate.
type shard[M any] struct {
	mu     sync.Mutex
	m      map[Key]*Entry[M]
	root   Entry[M]
	bytes  int64
	budget int64
}

func (s *shard[M]) pushFront(e *Entry[M]) {
	e.prev, e.next = &s.root, s.root.next
	e.prev.next, e.next.prev = e, e
}

func (s *shard[M]) unlink(e *Entry[M]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (s *shard[M]) moveToFront(e *Entry[M]) {
	if s.root.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// remove unlinks a resident entry and gives its bytes back to the shard.
func (s *shard[M]) remove(e *Entry[M]) {
	s.unlink(e)
	delete(s.m, e.Key)
	s.bytes -= e.Charge
}

// LRU is the sharded cache. Concurrency: Get and Put each take exactly
// one shard mutex; the slab pool has its own.
type LRU[M any] struct {
	shards [ShardCount]shard[M]
	pool   Pool
	budget int64
}

// NewLRU builds a cache with the given total byte budget, split evenly
// across the shards.
func NewLRU[M any](budgetBytes int64) *LRU[M] {
	budgetBytes = max(budgetBytes, ShardCount)
	c := &LRU[M]{budget: budgetBytes}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = map[Key]*Entry[M]{}
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		sh.budget = budgetBytes / ShardCount
	}
	return c
}

func (c *LRU[M]) shardOf(key Key) *shard[M] {
	return &c.shards[int(key[0])&(ShardCount-1)]
}

// Budget reports the total byte budget.
func (c *LRU[M]) Budget() int64 { return c.budget }

// Get finds a resident entry, marks it most recently used, and acquires
// a reader reference under the shard lock, so eviction cannot recycle
// the slab while the caller holds it. The caller must Release it.
func (c *LRU[M]) Get(key Key) (*Entry[M], bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e := sh.m[key]
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveToFront(e)
	e.refs.Add(1)
	sh.mu.Unlock()
	return e, true
}

// Put copies body into a slab-backed immutable entry and inserts it,
// replacing any resident entry for the key and then evicting from the
// LRU tail until the shard is back under budget. charge is what the
// tier says the entry costs (body plus its overhead and metadata
// bytes); one that exceeds a shard's budget is skipped (ok false)
// rather than wiping the shard. dropped are the entries that lost
// residency, for the tier's accounting: a replaced same-key entry first
// (the only one whose Key equals key), then the evicted ones oldest
// first. The caller must Release each.
func (c *LRU[M]) Put(key Key, body []byte, meta M, charge int64) (dropped []*Entry[M], ok bool) {
	sh := c.shardOf(key)
	if charge > sh.budget {
		return nil, false
	}
	slab := c.pool.Get(len(body))
	copy(slab, body)
	e := &Entry[M]{Key: key, Body: slab, Meta: meta, Charge: charge}
	e.refs.Store(1)

	sh.mu.Lock()
	if old := sh.m[key]; old != nil {
		sh.remove(old)
		dropped = append(dropped, old)
	}
	sh.m[key] = e
	sh.pushFront(e)
	sh.bytes += charge
	for sh.bytes > sh.budget && sh.root.prev != e {
		t := sh.root.prev
		sh.remove(t)
		dropped = append(dropped, t)
	}
	sh.mu.Unlock()
	return dropped, true
}

// Release drops one reference; the last one returns the slab.
func (c *LRU[M]) Release(e *Entry[M]) {
	if e.refs.Add(-1) == 0 {
		c.pool.Put(e.Body)
	}
}

// Resident reports the bytes charged and the entries held across all
// shards.
func (c *LRU[M]) Resident() (bytes int64, entries int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes += sh.bytes
		entries += len(sh.m)
		sh.mu.Unlock()
	}
	return bytes, entries
}
