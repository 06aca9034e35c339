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
