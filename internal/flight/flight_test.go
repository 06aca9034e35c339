package flight

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipse/internal/slab"
)

var key = slab.Key{1, 2, 3}

// tokens is the invariant under test everywhere: at most one promotion
// token outstanding, and only while the flight has no leader.
func tokens[R any](t *testing.T, f *Flight[R], want int) {
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
	f, leader := tab.Join(key)
	if !leader {
		t.Fatal("first Join must lead")
	}
	for i := 0; i < 3; i++ {
		if g, l := tab.Join(key); l || g != f {
			t.Fatal("later Joins must follow the same flight")
		}
	}
	tab.Leave(key, f) // under a live leader: only the waiter count moves
	mustLen(t, &tab, 1)
	for promoted := 1; promoted <= 2; promoted++ {
		if w, ok := tab.Waiters(key); !ok || w != 3-promoted {
			t.Fatalf("waiters %d/%v before promotion %d", w, ok, promoted)
		}
		tab.Abdicate(key, f)
		tokens(t, f, 1)
		mustLen(t, &tab, 1) // a leaderless flight with waiters keeps its key
		<-f.Promoted()
		tab.Claim(f)
		tokens(t, f, 0)
	}
	select {
	case <-f.Done():
		t.Fatal("flight done before Complete")
	default:
	}
	tab.Complete(key, f, "ok")
	<-f.Done()
	if f.Result() != "ok" {
		t.Fatalf("result %q", f.Result())
	}
	mustLen(t, &tab, 0)
}

// TestAbdicateAloneRetires: with nobody parked the key is retired, no
// token is left behind, and the next Join leads a fresh flight.
func TestAbdicateAloneRetires(t *testing.T) {
	var tab Table[int]
	f, _ := tab.Join(key)
	tab.Abdicate(key, f)
	tokens(t, f, 0)
	mustLen(t, &tab, 0)
	g, leader := tab.Join(key)
	if !leader || g == f {
		t.Fatal("a retired key must start a fresh flight")
	}
	tab.Complete(key, g, 1)
	mustLen(t, &tab, 0)
}

// TestLastLeaverDrainsToken: every follower of a leaderless flight dies
// before claiming the token; the last one drains it and retires the
// key, so the next requester leads instead of waiting forever.
func TestLastLeaverDrainsToken(t *testing.T) {
	var tab Table[int]
	f, _ := tab.Join(key)
	tab.Join(key)
	tab.Join(key)
	tab.Abdicate(key, f)
	tab.Leave(key, f)
	tokens(t, f, 1) // one follower still parked: the token stays for it
	mustLen(t, &tab, 1)
	tab.Leave(key, f)
	tokens(t, f, 0)
	mustLen(t, &tab, 0)
	if _, leader := tab.Join(key); !leader {
		t.Fatal("key stranded after its last follower left")
	}
}

// TestStorm runs the follower loop both tiers use from many goroutines,
// with leaders abdicating at random and followers' contexts dying at
// random: every request must finish, at most one leader may run at a
// time, and the table must be empty afterwards.
func TestStorm(t *testing.T) {
	const workers, rounds = 16, 200
	var (
		tab       Table[int]
		leading   atomic.Int32
		completed atomic.Int32
		wg        sync.WaitGroup
	)
	request := func(rng *rand.Rand, r int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if rng.Intn(4) == 0 {
			time.AfterFunc(time.Duration(rng.Intn(50))*time.Microsecond, cancel)
		}
		f, leader := tab.Join(key)
		for !leader {
			select {
			case <-f.Done():
				return
			case <-f.Promoted():
				tab.Claim(f)
				leader = true
			case <-ctx.Done():
				tab.Leave(key, f)
				return
			}
		}
		if leading.Add(1) != 1 {
			t.Error("two leaders on one flight at once")
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
		leading.Add(-1)
		if rng.Intn(3) == 0 {
			tab.Abdicate(key, f)
		} else {
			tab.Complete(key, f, r)
			completed.Add(1)
		}
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
	wg.Wait()
	mustLen(t, &tab, 0)
	if completed.Load() == 0 {
		t.Fatal("no flight ever completed")
	}
}
