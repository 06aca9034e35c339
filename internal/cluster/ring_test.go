package cluster

import (
	"fmt"
	"testing"

	"eclipse/internal/serve"
)

// testRing builds a ring of n synthetic Up backends.
func testRing(t *testing.T, n int) ring {
	t.Helper()
	bs := make([]*Backend, n)
	for i := range bs {
		b, err := newBackend(fmt.Sprintf("node%d:9000", i))
		if err != nil {
			t.Fatal(err)
		}
		b.state.Store(int32(StateUp))
		bs[i] = b
	}
	return ring{backends: bs}
}

func testKeys(n int) []serve.CacheKey {
	keys := make([]serve.CacheKey, n)
	for i := range keys {
		keys[i] = serve.DecodeKey([]byte(fmt.Sprintf("stream-%d", i)))
	}
	return keys
}

// TestRingDeterministic: the preference order is a pure function of
// (membership, key) — identical across calls, and every routable
// backend appears exactly once.
func TestRingDeterministic(t *testing.T) {
	r := testRing(t, 5)
	for _, key := range testKeys(50) {
		a, b := r.order(key), r.order(key)
		if len(a) != 5 {
			t.Fatalf("order has %d backends, want 5", len(a))
		}
		seen := map[string]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("order not deterministic at %d: %s vs %s", i, a[i].Name(), b[i].Name())
			}
			if seen[a[i].Name()] {
				t.Fatalf("backend %s appears twice", a[i].Name())
			}
			seen[a[i].Name()] = true
		}
	}
}

// TestRingSpread: rendezvous hashing spreads keys across the fleet —
// no backend is starved or overwhelmingly preferred.
func TestRingSpread(t *testing.T) {
	r := testRing(t, 3)
	counts := map[string]int{}
	keys := testKeys(300)
	for _, key := range keys {
		counts[r.order(key)[0].Name()]++
	}
	for name, n := range counts {
		if n < len(keys)/6 || n > len(keys)/2+len(keys)/6 {
			t.Fatalf("backend %s preferred for %d/%d keys — outside plausible HRW spread %v", name, n, len(keys), counts)
		}
	}
}

// TestRingMinimalReshuffle is the property that makes HRW the right
// hash for cache affinity: removing one backend remaps only the keys it
// owned; every other key keeps its preferred backend (and the orphaned
// keys land on their previous runner-up, the backend a retry already
// tries second).
func TestRingMinimalReshuffle(t *testing.T) {
	r := testRing(t, 3)
	keys := testKeys(300)
	before := make([][]*Backend, len(keys))
	for i, key := range keys {
		before[i] = r.order(key)
	}
	victim := r.backends[1]
	victim.state.Store(int32(StateDown))
	moved := 0
	for i, key := range keys {
		after := r.order(key)
		if len(after) != 2 {
			t.Fatalf("order has %d backends after removal, want 2", len(after))
		}
		if before[i][0] == victim {
			moved++
			if after[0] != before[i][1] {
				t.Fatalf("key %d: orphaned key went to %s, want previous runner-up %s",
					i, after[0].Name(), before[i][1].Name())
			}
		} else if after[0] != before[i][0] {
			t.Fatalf("key %d: reshuffled from %s to %s though its backend survived",
				i, before[i][0].Name(), after[0].Name())
		}
	}
	if moved == 0 {
		t.Fatal("victim owned zero keys; test proves nothing")
	}
}
