package slab

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// ref is the naive reference for one resident entry; a shard's model is
// a []ref, most recently used first. An entry's Meta is its version and
// its body is pattern(key, version) repeated, so a replaced, truncated
// or recycled slab shows up as wrong bytes in whoever still holds it.
type ref struct {
	key     Key
	version int
	charge  int64
}

func pattern(k Key, version int) byte { return k[0]*31 + k[1]*7 + byte(version) }

func checkBody(e *Entry[int]) error {
	for i, b := range e.Body {
		if want := pattern(e.Key, e.Meta); b != want {
			return fmt.Errorf("key %x v%d: byte %d is %d, want %d (slab aliased or truncated)", e.Key[:2], e.Meta, i, b, want)
		}
	}
	return nil
}

// TestLRUModel drives a seeded random Get/Put/Release sequence against
// the reference and compares after every step: resident set and recency
// order, bytes within budget, too-large skip, replace-on-duplicate, the
// dropped list, and that a held entry keeps its bytes after its
// eviction while its slab class is being re-issued. It runs as 8
// goroutines (for -race) that each own two shards — so every model is
// exact — and share the slab pool, so re-issue crosses goroutines.
// Contention on one shard's lock is the tiers' aliasing stress tests'.
func TestLRUModel(t *testing.T) {
	const (
		perShard = 4096
		overhead = 64
		workers  = 8
		steps    = 2500
	)
	c := NewLRU[int](perShard * ShardCount)
	var (
		mu                    sync.Mutex
		owner                 = map[*byte]*Entry[int]{} // slab → the entry last filled into it
		reissued, heldEvicted atomic.Int32
		wg                    sync.WaitGroup
	)
	worker := func(w int) error {
		rng := rand.New(rand.NewSource(int64(w)))
		model := map[byte][]ref{} // shard → its entries
		var held []*Entry[int]
		for step := 0; step < steps; step++ {
			k := Key{byte(w + workers*rng.Intn(2)), byte(rng.Intn(6))} // 6 keys in each of 2 shards
			m := model[k[0]]
			at := slices.IndexFunc(m, func(r ref) bool { return r.key == k })
			switch op := rng.Intn(10); {
			case op < 4: // Get, sometimes keeping the reference
				e, ok := c.Get(k)
				if ok != (at >= 0) {
					return fmt.Errorf("step %d: Get hit=%v, reference resident=%v", step, ok, at >= 0)
				}
				if !ok {
					break
				}
				m = slices.Insert(slices.Delete(m, at, at+1), 0, ref{k, e.Meta, e.Charge})
				if rng.Intn(3) == 0 && len(held) < 8 {
					held = append(held, e)
				} else {
					c.Release(e)
				}
			case op < 9: // Put across four slab classes; 1 in 12 is too large
				n := 100 + rng.Intn(900)
				if rng.Intn(12) == 0 {
					n = perShard
				}
				version := step + 1
				put := ref{k, version, int64(n + overhead)}
				dropped, ok := c.Put(k, bytes.Repeat([]byte{pattern(k, version)}, n), version, put.charge)
				if ok != (put.charge <= perShard) {
					return fmt.Errorf("step %d: Put(charge %d) ok=%v", step, put.charge, ok)
				}
				if !ok {
					break
				}
				var want []ref
				if at >= 0 {
					want = append(want, m[at])
					m = slices.Delete(m, at, at+1)
				}
				m = slices.Insert(m, 0, put)
				for ; len(m) > 1 && charged(m) > perShard; m = m[:len(m)-1] {
					want = append(want, m[len(m)-1])
				}
				var got []ref
				for _, d := range dropped {
					got = append(got, ref{d.Key, d.Meta, d.Charge})
					if err := checkBody(d); err != nil {
						return fmt.Errorf("step %d: dropped entry before Release: %v", step, err)
					}
					c.Release(d)
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("step %d: dropped %v, want %v", step, got, want)
				}
				e := c.shardOf(k).root.next // ours: nobody else touches this shard
				mu.Lock()
				prev := owner[&e.Body[:1][0]]
				owner[&e.Body[:1][0]] = e
				mu.Unlock()
				if prev != nil {
					// A re-issued slab: its previous owner must be fully
					// released, never one somebody still holds.
					if refs := prev.refs.Load(); refs != 0 {
						return fmt.Errorf("step %d: slab re-issued with %d refs outstanding", step, refs)
					}
					reissued.Add(1)
				}
			case len(held) > 0: // Release a held reference
				i := rng.Intn(len(held))
				c.Release(held[i])
				held = slices.Delete(held, i, i+1)
			}
			model[k[0]] = m

			sh := c.shardOf(k)
			var got []ref
			for e := sh.root.next; e != &sh.root; e = e.next {
				got = append(got, ref{e.Key, e.Meta, e.Charge})
			}
			if !slices.Equal(got, m) || len(sh.m) != len(m) || sh.bytes != charged(m) || sh.bytes > sh.budget {
				return fmt.Errorf("step %d shard %d: resident (MRU first) %v, %d in map, %d bytes\nwant %v, %d bytes, budget %d",
					step, k[0], got, len(sh.m), sh.bytes, m, charged(m), sh.budget)
			}
			for _, e := range held {
				if err := checkBody(e); err != nil {
					return fmt.Errorf("step %d: held entry: %v", step, err)
				}
				if !slices.Contains(model[e.Key[0]], ref{e.Key, e.Meta, e.Charge}) {
					heldEvicted.Add(1)
				}
			}
		}
		for _, e := range held {
			c.Release(e)
		}
		return nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := worker(w); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if reissued.Load() == 0 || heldEvicted.Load() == 0 {
		t.Fatalf("sequence has no teeth: %d slabs re-issued, %d held-after-eviction checks", reissued.Load(), heldEvicted.Load())
	}
	if b, n := c.Resident(); n == 0 || b > c.Budget() {
		t.Fatalf("resident %d bytes in %d entries, budget %d", b, n, c.Budget())
	}
}

func charged(m []ref) (n int64) {
	for _, r := range m {
		n += r.charge
	}
	return n
}
