package slab

import "testing"

// TestSlabPool checks class rounding and buffer identity on reuse.
func TestSlabPool(t *testing.T) {
	var p Pool
	b := p.Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("len/cap = %d/%d, want 1000/1024", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(700) // same class: must reuse the recycled slab
	if &b2[:1][0] != &b[:1][0] {
		t.Fatal("slab not recycled within its class")
	}
	if len(b2) != 700 {
		t.Fatalf("recycled slab len %d, want 700", len(b2))
	}
	p.Put(make([]byte, 1000)) // non-power-of-two cap: dropped
	b3 := p.Get(1000)
	if cap(b3) != 1024 {
		t.Fatalf("mis-sized slab entered the pool (cap %d)", cap(b3))
	}
}

// TestSlabPoolCapacity checks what Get reserves: a poolable size rounds
// up to its class, one byte above maxPooledSlab is allocated exactly
// (Put drops it, so rounding it up would only waste the difference).
func TestSlabPoolCapacity(t *testing.T) {
	var p Pool
	for _, c := range []struct{ n, cap int }{
		{1, 1},
		{maxPooledSlab/2 + 1, maxPooledSlab},
		{maxPooledSlab, maxPooledSlab},
		{maxPooledSlab + 1, maxPooledSlab + 1},
	} {
		if b := p.Get(c.n); len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Get(%d): len/cap = %d/%d, want %d/%d", c.n, len(b), cap(b), c.n, c.cap)
		}
	}
}
