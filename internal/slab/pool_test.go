package slab

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

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

// TestReadCapped pins the capped reader's three outcomes, under, at and
// over the cap, with the length declared and unknown, from a reader that
// returns EOF after its data and from one that returns it with the last
// bytes (as net/http's body readers do), and that a read error hands the
// slab back.
func TestReadCapped(t *testing.T) {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i*7 + 13)
	}
	for _, c := range []struct {
		max      int64
		wantLen  int
		overflow bool
	}{
		{20000, 10000, false},
		{10000, 10000, false},
		{4096, 4097, true}, // overflow keeps the sentinel byte in the prefix
		{9999, 10000, true},
	} {
		for i := 0; i < 4; i++ {
			length := []int64{int64(len(data)), -1}[i%2]
			var r io.Reader = bytes.NewReader(data)
			if i >= 2 {
				r = iotest.DataErrReader(r)
			}
			var p Pool
			buf, overflow, err := p.ReadCapped(r, length, c.max)
			if err != nil {
				t.Fatal(err)
			}
			if overflow != c.overflow || len(buf) != c.wantLen {
				t.Errorf("ReadCapped(length=%d, max=%d): len=%d overflow=%v, want len=%d overflow=%v",
					length, c.max, len(buf), overflow, c.wantLen, c.overflow)
			}
			if !bytes.Equal(buf, data[:c.wantLen]) {
				t.Errorf("ReadCapped(length=%d, max=%d): prefix bytes differ", length, c.max)
			}
			p.Put(buf)
			if n := p.Outstanding(); n != 0 {
				t.Errorf("ReadCapped(length=%d, max=%d): %d slabs outstanding after Put", length, c.max, n)
			}
		}
	}

	var p Pool
	boom := errors.New("boom")
	buf, _, err := p.ReadCapped(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(boom)), -1, 1<<20)
	if buf != nil || err != boom {
		t.Fatalf("failed read: %d bytes, err %v; want nil, %v", len(buf), err, boom)
	}
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("failed read left %d slabs outstanding", n)
	}
}
