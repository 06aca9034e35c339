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

// ref is the naive reference for one resident entry; the cache's model
// is a []ref, most recently used first. An entry's Meta is its version
// and its body is pattern(key, version) repeated, so a replaced,
// truncated or recycled slab shows up as wrong bytes in whoever still
// holds it.
type ref struct {
	key     Key
	version int
	charge  int64
}

func refOf(e *Entry[int]) ref { return ref{e.Key, e.Meta, e.Charge} }

func pattern(k Key, version int) byte { return k[0]*31 + k[1]*7 + byte(version) }

func checkBody(e *Entry[int]) error {
	for i, b := range e.Body {
		if want := pattern(e.Key, e.Meta); b != want {
			return fmt.Errorf("key %x v%d: byte %d is %d, want %d (slab aliased or truncated)", e.Key[:2], e.Meta, i, b, want)
		}
	}
	return nil
}

// modelKey spreads the test keys over the whole first byte, so any
// leftover dependence on where a key hashes would show up.
func modelKey(i int) Key { return Key{byte(i * 29), byte(i)} }

// TestLRUModel drives a seeded random Get/Put/Release sequence against
// an exact model of the whole cache and compares after every step:
// resident set and recency order, bytes within budget, too-large only
// above the budget, a same-key replacement reported as replaced (not
// evicted), evictions oldest first, and that a held entry keeps its
// bytes after it loses residency while its slab class is re-issued.
// A concurrent phase then shares one cache among goroutines with no
// model, checking body patterns only, so slab re-issue crosses
// goroutines under -race.
func TestLRUModel(t *testing.T) {
	const (
		budget   = 4096
		overhead = 64
		keys     = 12
		steps    = 10000
	)
	c := NewLRU[int](budget)
	rng := rand.New(rand.NewSource(1))
	owner := map[*byte]*Entry[int]{} // slab → the entry last filled into it
	var (
		m                     []ref // the model, MRU first
		held                  []*Entry[int]
		reissued, heldDropped int
	)
	for step := 0; step < steps; step++ {
		k := modelKey(rng.Intn(keys))
		at := slices.IndexFunc(m, func(r ref) bool { return r.key == k })
		switch op := rng.Intn(10); {
		case op < 4: // Get, sometimes keeping the reference
			e, ok := c.Get(k)
			if ok != (at >= 0) {
				t.Fatalf("step %d: Get hit=%v, model resident=%v", step, ok, at >= 0)
			}
			if !ok {
				break
			}
			m = slices.Insert(slices.Delete(m, at, at+1), 0, refOf(e))
			if rng.Intn(3) == 0 && len(held) < 8 {
				held = append(held, e)
			} else {
				c.Release(e)
			}
		case op < 9: // Put across four slab classes; 1 in 12 sits on the budget edge
			n := 100 + rng.Intn(900)
			if rng.Intn(12) == 0 {
				n = budget - overhead + rng.Intn(2) // charge == budget fits, budget+1 does not
			}
			version := step + 1
			put := ref{k, version, int64(n + overhead)}
			replaced, evicted, ok := c.Put(k, bytes.Repeat([]byte{pattern(k, version)}, n), version, put.charge)
			if ok != (put.charge <= budget) {
				t.Fatalf("step %d: Put(charge %d) ok=%v, budget %d", step, put.charge, ok, budget)
			}
			if !ok {
				break
			}
			var wantReplaced *ref
			if at >= 0 {
				r := m[at]
				wantReplaced = &r
				m = slices.Delete(m, at, at+1)
			}
			m = slices.Insert(m, 0, put)
			var wantEvicted []ref
			for ; charged(m) > budget; m = m[:len(m)-1] {
				wantEvicted = append(wantEvicted, m[len(m)-1])
			}
			if (replaced == nil) != (wantReplaced == nil) || replaced != nil && refOf(replaced) != *wantReplaced {
				t.Fatalf("step %d: replaced %v, want %v", step, replaced, wantReplaced)
			}
			var gotEvicted []ref
			for _, d := range append(evicted, replaced) {
				if d == nil {
					continue
				}
				if err := checkBody(d); err != nil {
					t.Fatalf("step %d: dropped entry before Release: %v", step, err)
				}
				if d != replaced {
					gotEvicted = append(gotEvicted, refOf(d))
				}
				c.Release(d)
			}
			if !slices.Equal(gotEvicted, wantEvicted) {
				t.Fatalf("step %d: evicted %v, want %v (oldest first)", step, gotEvicted, wantEvicted)
			}
			e := c.root.next
			if prev := owner[&e.Body[:1][0]]; prev != nil {
				// A re-issued slab: its previous owner must be fully
				// released, never one somebody still holds.
				if refs := prev.refs.Load(); refs != 0 {
					t.Fatalf("step %d: slab re-issued with %d refs outstanding", step, refs)
				}
				reissued++
			}
			owner[&e.Body[:1][0]] = e
		case len(held) > 0: // Release a held reference
			i := rng.Intn(len(held))
			c.Release(held[i])
			held = slices.Delete(held, i, i+1)
		}

		var got []ref
		for e := c.root.next; e != &c.root; e = e.next {
			got = append(got, refOf(e))
		}
		if !slices.Equal(got, m) || len(c.m) != len(m) || c.bytes != charged(m) || c.bytes > budget {
			t.Fatalf("step %d: resident (MRU first) %v, %d in map, %d bytes\nwant %v, %d bytes, budget %d",
				step, got, len(c.m), c.bytes, m, charged(m), budget)
		}
		for _, e := range held {
			if err := checkBody(e); err != nil {
				t.Fatalf("step %d: held entry: %v", step, err)
			}
			if !slices.Contains(m, refOf(e)) {
				heldDropped++
			}
		}
	}
	for _, e := range held {
		c.Release(e)
	}
	if reissued == 0 || heldDropped == 0 {
		t.Fatalf("sequence has no teeth: %d slabs re-issued, %d held-after-eviction checks", reissued, heldDropped)
	}

	t.Run("concurrent", func(t *testing.T) {
		const workers = 8
		c := NewLRU[int](budget)
		var (
			droppedWhileHeld atomic.Int32
			wg               sync.WaitGroup
		)
		worker := func(w int) error {
			rng := rand.New(rand.NewSource(int64(w)))
			var held []*Entry[int]
			defer func() {
				for _, e := range held {
					c.Release(e)
				}
			}()
			for step := 0; step < steps/workers; step++ {
				k := modelKey(rng.Intn(keys))
				switch op := rng.Intn(10); {
				case op < 4:
					e, ok := c.Get(k)
					if !ok {
						break
					}
					if err := checkBody(e); err != nil {
						return fmt.Errorf("step %d: Get: %v", step, err)
					}
					if rng.Intn(3) == 0 && len(held) < 8 {
						held = append(held, e)
					} else {
						c.Release(e)
					}
				case op < 9:
					n := 100 + rng.Intn(900)
					version := step<<3 | w
					replaced, evicted, _ := c.Put(k, bytes.Repeat([]byte{pattern(k, version)}, n), version, int64(n+overhead))
					for _, d := range append(evicted, replaced) {
						if d == nil {
							continue
						}
						if err := checkBody(d); err != nil {
							return fmt.Errorf("step %d: dropped entry before Release: %v", step, err)
						}
						if d.refs.Load() > 1 {
							droppedWhileHeld.Add(1)
						}
						c.Release(d)
					}
				case len(held) > 0:
					i := rng.Intn(len(held))
					c.Release(held[i])
					held = slices.Delete(held, i, i+1)
				}
				for _, e := range held {
					if err := checkBody(e); err != nil {
						return fmt.Errorf("step %d: held entry: %v", step, err)
					}
				}
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
		if droppedWhileHeld.Load() == 0 {
			t.Fatal("sequence has no teeth: no entry lost residency while another goroutine held it")
		}
		if b, n := c.Resident(); n == 0 || b > c.Budget() {
			t.Fatalf("resident %d bytes in %d entries, budget %d", b, n, c.Budget())
		}
	})
}

func charged(m []ref) (n int64) {
	for _, r := range m {
		n += r.charge
	}
	return n
}

// TestLRULabelIndependent replays one fixed Zipf trace of fills and
// hits through the cache under ten relabelings of the catalog's keys
// (permutations of key[0]): eviction follows recency alone, so the hit,
// fill and eviction counts may not depend on what the keys hash to.
func TestLRULabelIndependent(t *testing.T) {
	const (
		catalog = 64
		ops     = 4000
	)
	charge := func(i int) int64 { return int64(512 + i*389%1536) }
	var total int64
	for i := 0; i < catalog; i++ {
		total += charge(i)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, catalog-1)
	trace := make([]int, ops)
	for i := range trace {
		trace[i] = int(zipf.Uint64())
	}
	body := make([]byte, 256)

	type counts struct{ hits, fills, evictions, tooLarge int }
	replay := func(label func(i int) Key) (n counts) {
		c := NewLRU[int](total / 4)
		for _, i := range trace {
			if e, ok := c.Get(label(i)); ok {
				n.hits++
				c.Release(e)
				continue
			}
			replaced, evicted, ok := c.Put(label(i), body, i, charge(i))
			if !ok {
				n.tooLarge++
				continue
			}
			n.fills++
			n.evictions += len(evicted)
			for _, d := range append(evicted, replaced) {
				if d != nil {
					c.Release(d)
				}
			}
		}
		return n
	}
	want := replay(func(i int) Key { return Key{byte(i)} })
	if want.hits == 0 || want.evictions == 0 || want.tooLarge != 0 {
		t.Fatalf("identity labels: %+v, want hits, evictions and nothing too large", want)
	}
	for r := 1; r <= 10; r++ {
		perm := rand.New(rand.NewSource(int64(r))).Perm(256)
		if got := replay(func(i int) Key { return Key{byte(perm[i])} }); got != want {
			t.Errorf("relabeling %d: %+v, identity labels %+v", r, got, want)
		}
	}
}

// TestLRUAdmitsUpToBudget: an entry is too large only when its charge
// exceeds the whole budget; one that fits evicts everything older.
func TestLRUAdmitsUpToBudget(t *testing.T) {
	const budget = 16 << 10
	c := NewLRU[int](budget)
	for i, tc := range []struct {
		charge int64
		ok     bool
	}{
		{budget/16 + 1, true},
		{budget / 4, true},
		{budget, true},
		{budget + 1, false},
	} {
		replaced, evicted, ok := c.Put(Key{byte(i)}, []byte("x"), i, tc.charge)
		if ok != tc.ok {
			t.Fatalf("Put(charge %d) into a %d-byte budget: ok=%v, want %v", tc.charge, budget, ok, tc.ok)
		}
		for _, d := range append(evicted, replaced) {
			if d != nil {
				c.Release(d)
			}
		}
	}
	if b, n := c.Resident(); b != budget || n != 1 {
		t.Fatalf("resident %d bytes in %d entries, want the budget-sized entry alone", b, n)
	}
}
