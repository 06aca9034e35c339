// Package flight is the singleflight table both cache tiers collapse
// storms on: concurrent requests for one content address cost one
// execution. Do is the whole protocol. The first caller to miss a key
// leads its flight and does the real work; later ones park on it,
// consuming nothing downstream, and then take what the leader published
// or look the key up again. A leader that fails for a reason of its own
// (client gone, deadline expired, queue full), or panics, abdicates: one
// parked follower is promoted to lead a fresh attempt, so the key is
// never stranded. The table owns the loop the way the paper's shell
// owns synchronisation: a tier supplies its cache read and its work and
// sees neither the channels nor the promotion token.
package flight

import (
	"context"
	"sync"
	"sync/atomic"

	"eclipse/internal/slab"
)

// Verdict is how a leader ends its flight.
type Verdict int

const (
	Publish  Verdict = iota // every follower gets the leader's result
	Resident                // the key is cached now: each follower looks it up again
	Abdicate                // a failure of the leader's own: one follower is promoted
)

// Role says how Do answered its caller.
type Role int

const (
	Hit          Role = iota // lookup found the key, first or as the leader's recheck
	HitAfterWait             // lookup found the key after a flight ended Resident
	Led                      // the caller ran lead; R is what it returned
	Followed                 // R is what the leader published, or err is ctx.Err()
)

// flight is one in-flight key. All state transitions happen under the
// table mutex; doneCh/promoteCh carry the cross-goroutine signals.
// Invariant: at most one promotion token is outstanding, because only
// the current leader can abdicate and abdication clears hasLeader until
// a follower claims the token.
type flight[R any] struct {
	doneCh    chan struct{} // closed on terminal completion
	promoteCh chan struct{} // cap 1; a token transfers leadership
	res       R
	verdict   Verdict // Publish or Resident; valid once doneCh is closed
	waiters   int
	hasLeader bool
}

// Table maps keys to their in-flight state. A single mutex is enough:
// it is touched only on cache misses, and a same-key storm serializes
// on its flight either way. The zero value is ready to use.
type Table[R any] struct {
	mu         sync.Mutex
	m          map[slab.Key]*flight[R]
	promotions atomic.Uint64
}

// Do answers one request for key. lookup is the tier's cache read: on
// true the caller holds whatever it found. Do calls it first, again
// after a flight the caller waited on ends Resident, and once more as
// leader before running lead, because a previous flight may have filled
// the key between the miss and the join (a promoted leader inherits
// that window too); that recheck is what makes "N identical requests,
// one execution" airtight. lead runs on the calling goroutine, at most
// once per Do; if it panics, the flight is abdicated and the panic goes
// on to Do's caller. A parked caller whose ctx ends gets ctx.Err().
func (t *Table[R]) Do(ctx context.Context, key slab.Key, lookup func() bool, lead func() (R, Verdict)) (res R, role Role, err error) {
	if lookup() {
		return res, Hit, nil
	}
	for {
		f, leader := t.join(key)
		if !leader {
			select {
			case <-f.doneCh:
				if f.verdict == Publish {
					return f.res, Followed, nil
				}
				if lookup() {
					return res, HitAfterWait, nil
				}
				continue
			case <-f.promoteCh:
				t.claim(f)
			case <-ctx.Done():
				t.leave(key, f)
				return res, Followed, ctx.Err()
			}
		}
		if lookup() {
			t.complete(key, f, res, Resident)
			return res, Hit, nil
		}
		return t.run(key, f, lead), Led, nil
	}
}

// run runs lead as f's leader and ends the flight by its verdict. A
// lead that unwinds without one abdicates, so followers are promoted,
// never stranded.
func (t *Table[R]) run(key slab.Key, f *flight[R], lead func() (R, Verdict)) (res R) {
	v := Abdicate
	defer func() {
		if v == Abdicate {
			t.abdicate(key, f)
		} else {
			t.complete(key, f, res, v)
		}
	}()
	res, v = lead()
	return res
}

// join returns the key's flight and whether the caller leads it. A
// leader must end with exactly one complete or abdicate; a follower
// with a receive from doneCh, or claim after promoteCh, or leave.
func (t *Table[R]) join(key slab.Key) (*flight[R], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		f.waiters++
		return f, false
	}
	f := &flight[R]{
		doneCh:    make(chan struct{}),
		promoteCh: make(chan struct{}, 1),
		hasLeader: true,
	}
	if t.m == nil {
		t.m = map[slab.Key]*flight[R]{}
	}
	t.m[key] = f
	return f, true
}

// retire removes the flight from the table. Caller holds t.mu.
func (t *Table[R]) retire(key slab.Key, f *flight[R]) {
	if t.m[key] == f {
		delete(t.m, key)
	}
}

// complete publishes the terminal result and verdict, removes the
// flight, and wakes every follower.
func (t *Table[R]) complete(key slab.Key, f *flight[R], res R, v Verdict) {
	t.mu.Lock()
	f.res, f.verdict = res, v
	t.retire(key, f)
	t.mu.Unlock()
	close(f.doneCh)
}

// abdicate hands leadership to one parked follower, or retires the
// flight if nobody is waiting.
func (t *Table[R]) abdicate(key slab.Key, f *flight[R]) {
	t.mu.Lock()
	f.hasLeader = false
	if f.waiters > 0 {
		// Buffered send cannot block: a token is outstanding only while
		// hasLeader is false, and we just cleared it.
		f.promoteCh <- struct{}{}
	} else {
		t.retire(key, f)
	}
	t.mu.Unlock()
}

// claim records that a follower took the promotion token and now leads.
func (t *Table[R]) claim(f *flight[R]) {
	t.mu.Lock()
	f.waiters--
	f.hasLeader = true
	t.mu.Unlock()
	t.promotions.Add(1)
}

// leave removes a follower whose own context died. The last leaver of a
// leaderless flight drains any unclaimed promotion token and retires
// the flight so the key is never stranded.
func (t *Table[R]) leave(key slab.Key, f *flight[R]) {
	t.mu.Lock()
	f.waiters--
	if f.waiters == 0 && !f.hasLeader {
		select {
		case <-f.promoteCh:
		default:
		}
		t.retire(key, f)
	}
	t.mu.Unlock()
}

// Len reports the number of keys in flight.
func (t *Table[R]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Waiters reports how many followers are parked on key's flight, and
// whether the key is in flight at all. Tests poll it to make promotion
// scenarios deterministic.
func (t *Table[R]) Waiters(key slab.Key) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.m[key]
	if !ok {
		return 0, false
	}
	return f.waiters, true
}

// Promotions reports how many followers have been promoted to lead.
func (t *Table[R]) Promotions() uint64 { return t.promotions.Load() }
