package flight

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipse/internal/slab"
)

var key = slab.Key{1, 2, 3}

// tokens is the invariant under test everywhere: at most one promotion
// token outstanding, and only while the flight has no leader.
func tokens[R any](t *testing.T, f *flight[R], want int) {
	t.Helper()
	if got := len(f.promoteCh); got != want {
		t.Fatalf("%d promotion tokens outstanding, want %d", got, want)
	}
	if want > 0 && f.hasLeader {
		t.Fatal("token outstanding while the flight has a leader")
	}
}

func mustLen[R any](t *testing.T, tab *Table[R], want int) {
	t.Helper()
	if got := tab.Len(); got != want {
		t.Fatalf("%d keys in flight, want %d", got, want)
	}
}

// TestPromotionChain: leader → abdicate → promote → (again) → complete,
// with one follower leaving under the live leader on the way.
func TestPromotionChain(t *testing.T) {
	var tab Table[string]
	f, leader := tab.join(key)
	if !leader {
		t.Fatal("first join must lead")
	}
	for i := 0; i < 3; i++ {
		if g, l := tab.join(key); l || g != f {
			t.Fatal("later joins must follow the same flight")
		}
	}
	tab.leave(key, f) // under a live leader: only the waiter count moves
	mustLen(t, &tab, 1)
	for promoted := 1; promoted <= 2; promoted++ {
		if w, ok := tab.Waiters(key); !ok || w != 3-promoted {
			t.Fatalf("waiters %d/%v before promotion %d", w, ok, promoted)
		}
		tab.abdicate(key, f)
		tokens(t, f, 1)
		mustLen(t, &tab, 1) // a leaderless flight with waiters keeps its key
		<-f.promoteCh
		tab.claim(f)
		tokens(t, f, 0)
	}
	select {
	case <-f.doneCh:
		t.Fatal("flight done before complete")
	default:
	}
	tab.complete(key, f, "ok", Publish)
	<-f.doneCh
	if f.res != "ok" {
		t.Fatalf("result %q", f.res)
	}
	mustLen(t, &tab, 0)
}

// TestAbdicateAloneRetires: with nobody parked the key is retired, no
// token is left behind, and the next join leads a fresh flight.
func TestAbdicateAloneRetires(t *testing.T) {
	var tab Table[int]
	f, _ := tab.join(key)
	tab.abdicate(key, f)
	tokens(t, f, 0)
	mustLen(t, &tab, 0)
	g, leader := tab.join(key)
	if !leader || g == f {
		t.Fatal("a retired key must start a fresh flight")
	}
	tab.complete(key, g, 1, Publish)
	mustLen(t, &tab, 0)
}

// TestLastLeaverDrainsToken: every follower of a leaderless flight dies
// before claiming the token; the last one drains it and retires the
// key, so the next requester leads instead of waiting forever.
func TestLastLeaverDrainsToken(t *testing.T) {
	var tab Table[int]
	f, _ := tab.join(key)
	tab.join(key)
	tab.join(key)
	tab.abdicate(key, f)
	tab.leave(key, f)
	tokens(t, f, 1) // one follower still parked: the token stays for it
	mustLen(t, &tab, 1)
	tab.leave(key, f)
	tokens(t, f, 0)
	mustLen(t, &tab, 0)
	if _, leader := tab.join(key); !leader {
		t.Fatal("key stranded after its last follower left")
	}
}

// errBoom is what the tests' leaders panic with.
var errBoom = errors.New("boom")

func miss() bool { return false }

// TestStorm drives Do from many goroutines on one key, with leaders
// publishing, filling, abdicating and panicking at random, a fill that
// only one hit finds before it is gone, and followers' contexts dying
// at random: every request must finish, at most one leader may run at a
// time, and the table must be empty afterwards.
func TestStorm(t *testing.T) {
	const workers, rounds = 16, 200
	var (
		tab      Table[int]
		resident atomic.Bool // the tier's cache: one entry, one hit
		leading  atomic.Int32
		roles    [Followed + 1]atomic.Int32
		wg       sync.WaitGroup
	)
	lookup := func() bool { return resident.CompareAndSwap(true, false) }
	request := func(rng *rand.Rand, r int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if rng.Intn(4) == 0 {
			time.AfterFunc(time.Duration(rng.Intn(50))*time.Microsecond, cancel)
		}
		defer func() {
			if p := recover(); p != nil && p != errBoom {
				panic(p)
			}
		}()
		_, role, _ := tab.Do(ctx, key, lookup, func() (int, Verdict) {
			if leading.Add(1) != 1 {
				t.Error("two leaders on one flight at once")
			}
			time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
			leading.Add(-1)
			switch rng.Intn(8) {
			case 0:
				panic(errBoom)
			case 1, 2:
				return r, Abdicate
			case 3, 4:
				resident.Store(true)
				return r, Resident
			}
			return r, Publish
		})
		roles[role].Add(1)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				request(rng, r)
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("requests stranded")
	}
	mustLen(t, &tab, 0)
	t.Logf("hit %d, hit after wait %d, led %d, followed %d",
		roles[Hit].Load(), roles[HitAfterWait].Load(), roles[Led].Load(), roles[Followed].Load())
	if roles[Led].Load() == 0 || roles[Followed].Load() == 0 {
		t.Fatal("no flight was both led and followed")
	}
}

// TestLeaderPanicPromotes: a lead that panics with followers parked
// abdicates on the way out. The panic reaches the leader's caller,
// exactly one follower is promoted and leads, and no flight is left.
// The negative control is a leader that runs lead without Do's deferred
// abdication: its followers are stranded, and the check says so.
func TestLeaderPanicPromotes(t *testing.T) {
	if err := panicPromotes(func(tab *Table[int], lead func() (int, Verdict)) {
		tab.Do(context.Background(), key, miss, lead)
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Run("negative-control", func(t *testing.T) {
		err := panicPromotes(func(tab *Table[int], lead func() (int, Verdict)) {
			tab.join(key)
			lead()
		}, 100*time.Millisecond)
		if err == nil {
			t.Fatal("a leader without the deferred abdication went unnoticed")
		}
		t.Log(err)
	})
}

// panicPromotes runs leader with a lead that panics once three
// followers are parked on its flight, and reports what went wrong. A
// follower still parked after bound is stranded.
func panicPromotes(leader func(*Table[int], func() (int, Verdict)), bound time.Duration) error {
	const followers = 3
	var (
		tab     Table[int]
		led     atomic.Int32
		release = make(chan struct{})
		started = make(chan struct{})
		caught  = make(chan any, 1)
		roles   = make(chan Role, followers)
	)
	go func() {
		defer func() { caught <- recover() }()
		leader(&tab, func() (int, Verdict) {
			close(started)
			<-release
			panic(errBoom)
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // frees stranded followers
	for i := 0; i < followers; i++ {
		go func() {
			_, role, _ := tab.Do(ctx, key, miss, func() (int, Verdict) {
				led.Add(1)
				return 1, Publish
			})
			roles <- role
		}()
	}
	for w, _ := tab.Waiters(key); w < followers; w, _ = tab.Waiters(key) {
		runtime.Gosched()
	}
	close(release)
	if p := <-caught; p != errBoom {
		return fmt.Errorf("the leader's caller recovered %v, want the panic", p)
	}
	timeout := time.After(bound)
	var got [Followed + 1]int
	for i := 0; i < followers; i++ {
		select {
		case role := <-roles:
			got[role]++
		case <-timeout:
			return fmt.Errorf("%d of %d followers stranded after the leader panicked", followers-i, followers)
		}
	}
	if got[Led] != 1 || got[Followed] != followers-1 || led.Load() != 1 {
		return fmt.Errorf("roles %v, %d leads; want one promoted leader and %d followers", got, led.Load(), followers-1)
	}
	if n := tab.Len(); n != 0 {
		return fmt.Errorf("%d keys in flight afterwards", n)
	}
	return nil
}
