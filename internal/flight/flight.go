// Package flight is the singleflight table both cache tiers collapse
// storms on: concurrent requests for one content address cost one
// execution. The first requester to Join a key leads its flight and
// does the real work; later ones park on it without consuming anything
// downstream. R is what the leader publishes on completion.
//
// Leadership is not sticky: a leader that fails for reasons specific to
// its own request (client gone, deadline expired, queue full) calls
// Abdicate, and one parked follower is promoted to lead a fresh attempt
// instead of the key being stranded. Failures that would be the same
// for every requester are published with Complete instead.
//
// The table owns the protocol, not the follower loop: what a follower
// does when a flight completes differs per tier, so each tier selects
// on Done, Promoted and its own context, and answers Claim or Leave.
package flight

import (
	"sync"

	"eclipse/internal/slab"
)

// Flight is one in-flight key. All state transitions happen under the
// table mutex; doneCh/promoteCh carry the cross-goroutine signals.
// Invariant: at most one promotion token is outstanding, because only
// the current leader can abdicate and abdication clears hasLeader until
// a follower claims the token.
type Flight[R any] struct {
	doneCh    chan struct{} // closed on terminal completion
	promoteCh chan struct{} // cap 1; a token transfers leadership
	res       R
	waiters   int
	hasLeader bool
}

// Done is closed once the flight has completed; Result is valid after.
func (f *Flight[R]) Done() <-chan struct{} { return f.doneCh }

// Promoted delivers the promotion token: the follower that receives it
// must Claim the flight and lead it.
func (f *Flight[R]) Promoted() <-chan struct{} { return f.promoteCh }

// Result returns what the leader published. Only valid after Done.
func (f *Flight[R]) Result() R { return f.res }

// Table maps keys to their in-flight state. A single mutex is enough:
// it is touched only on cache misses, and a same-key storm serializes
// on its flight either way. The zero value is ready to use.
type Table[R any] struct {
	mu sync.Mutex
	m  map[slab.Key]*Flight[R]
}

// Join returns the key's flight and whether the caller leads it. A
// leader must end with exactly one Complete or Abdicate; a follower
// with a receive from Done, or Claim after Promoted, or Leave.
func (t *Table[R]) Join(key slab.Key) (*Flight[R], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		f.waiters++
		return f, false
	}
	f := &Flight[R]{
		doneCh:    make(chan struct{}),
		promoteCh: make(chan struct{}, 1),
		hasLeader: true,
	}
	if t.m == nil {
		t.m = map[slab.Key]*Flight[R]{}
	}
	t.m[key] = f
	return f, true
}

// retire removes the flight from the table. Caller holds t.mu.
func (t *Table[R]) retire(key slab.Key, f *Flight[R]) {
	if t.m[key] == f {
		delete(t.m, key)
	}
}

// Complete publishes the terminal result, removes the flight, and wakes
// every follower.
func (t *Table[R]) Complete(key slab.Key, f *Flight[R], res R) {
	t.mu.Lock()
	f.res = res
	t.retire(key, f)
	t.mu.Unlock()
	close(f.doneCh)
}

// Abdicate hands leadership to one parked follower, or retires the
// flight if nobody is waiting.
func (t *Table[R]) Abdicate(key slab.Key, f *Flight[R]) {
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

// Claim records that a follower took the promotion token and now leads.
func (t *Table[R]) Claim(f *Flight[R]) {
	t.mu.Lock()
	f.waiters--
	f.hasLeader = true
	t.mu.Unlock()
}

// Leave removes a follower whose own context died. The last leaver of a
// leaderless flight drains any unclaimed promotion token and retires
// the flight so the key is never stranded.
func (t *Table[R]) Leave(key slab.Key, f *Flight[R]) {
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
