package media

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type sadKernel func(cur *MBPixels, ref []byte, stride, earlyOut int) int

// sadPartials returns the running SAD of cur against ref after each row.
func sadPartials(cur *MBPixels, ref []byte, stride int) [MBSize]int {
	var sums [MBSize]int
	sum := 0
	for j := range sums {
		for i := 0; i < MBSize; i++ {
			d := int(cur[j*MBSize+i]) - int(ref[j*stride+i])
			sum += max(d, -d)
		}
		sums[j] = sum
	}
	return sums
}

// sadRowsScalar is the scalar row loop both kernels reproduce; with eager
// set it is the faulty kernel that exits at a sum equal to earlyOut.
func sadRowsScalar(eager bool) sadKernel {
	return func(cur *MBPixels, ref []byte, stride, earlyOut int) int {
		sums := sadPartials(cur, ref, stride)
		for _, sum := range sums {
			if sum > earlyOut || eager && sum == earlyOut {
				return sum
			}
		}
		return sums[MBSize-1]
	}
}

// sadKernelMismatch runs kernel against sadRowsSWAR over block pairs at
// strides 0, 16, 30 (the r = 7 window), 142 and 176, at unaligned ref
// offsets, and at earlyOut −1, 0, 1<<30 and each row's exact partial sum
// ±1, and describes the first disagreement, or returns "".
func sadKernelMismatch(kernel sadKernel) string {
	rng := rand.New(rand.NewSource(21))
	for _, stride := range []int{0, 16, 30, 142, 176} {
		buf := make([]byte, 3+15*stride+MBSize)
		for _, pair := range []struct {
			name     string
			cur, ref func() byte
		}{
			{"white-black", func() byte { return 255 }, func() byte { return 0 }},
			{"black-white", func() byte { return 0 }, func() byte { return 255 }},
			{"random", func() byte { return byte(rng.Intn(256)) }, func() byte { return byte(rng.Intn(256)) }},
			{"close", func() byte { return 100 + byte(rng.Intn(3)) }, func() byte { return 100 + byte(rng.Intn(3)) }},
		} {
			var cur MBPixels
			for i := range cur {
				cur[i] = pair.cur()
			}
			for i := range buf {
				buf[i] = pair.ref()
			}
			for off := 0; off <= 3; off++ {
				ref := buf[off:]
				earlyOuts := []int{-1, 0, 1 << 30}
				for _, sum := range sadPartials(&cur, ref, stride) {
					earlyOuts = append(earlyOuts, sum-1, sum, sum+1)
				}
				for _, e := range earlyOuts {
					if got, want := kernel(&cur, ref, stride, e), sadRowsSWAR(&cur, ref, stride, e); got != want {
						return fmt.Sprintf("%s stride %d offset %d earlyOut %d: got %d, SWAR %d", pair.name, stride, off, e, got, want)
					}
				}
			}
		}
	}
	return ""
}

// TestSADKernelMatchesSWAR holds the shipped kernel to the portable one
// value for value, partial sums included; white against black is the
// largest sum, 256·255, which TestSADMatchesRasterSAD pins as a value.
func TestSADKernelMatchesSWAR(t *testing.T) {
	if msg := sadKernelMismatch(sadRows); msg != "" {
		t.Fatal(msg)
	}
}

// TestSADKernelParityCatchesFaults is the negative control: the table
// must pass the scalar row loop and reject the kernel that exits early at
// ≥ instead of >, so a pass above cannot be vacuous.
func TestSADKernelParityCatchesFaults(t *testing.T) {
	if msg := sadKernelMismatch(sadRowsScalar(false)); msg != "" {
		t.Fatalf("scalar row loop rejected: %s", msg)
	}
	if msg := sadKernelMismatch(sadRowsScalar(true)); msg == "" {
		t.Error("table passed a kernel that exits early at a sum equal to earlyOut")
	} else {
		t.Logf("eager exit caught: %s", msg)
	}
}

// FuzzSADKernelParity derives cur, ref, a stride of 0..176 and earlyOut
// from the fuzz bytes and holds sadRows to sadRowsSWAR.
func FuzzSADKernelParity(f *testing.F) {
	f.Add(uint8(30), 1<<30, []byte("eclipse sad kernel"))
	f.Add(uint8(16), 0, []byte{0, 255})
	f.Add(uint8(0), -1, []byte{7})
	f.Add(uint8(176), 2040, []byte{0x10, 0x80, 0xff, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, s uint8, earlyOut int, data []byte) {
		if len(data) == 0 {
			return
		}
		stride := int(s) % 177
		pix := func(i int) byte { return data[i%len(data)] + byte(i/len(data))*31 }
		var cur MBPixels
		for i := range cur {
			cur[i] = pix(i)
		}
		ref := make([]byte, 15*stride+MBSize)
		for i := range ref {
			ref[i] = pix(i + len(cur))
		}
		if got, want := sadRows(&cur, ref, stride, earlyOut), sadRowsSWAR(&cur, ref, stride, earlyOut); got != want {
			t.Fatalf("stride %d earlyOut %d: got %d, SWAR %d", stride, earlyOut, got, want)
		}
	})
}

type sad8Kernel func(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32

// sad8Scalar is the eight-candidate contract written with sadPartials:
// after rows 4, 8 and 12 it stops when every partial sum exceeds earlyOut.
// With anyExit set it is the faulty kernel that stops when any one does.
func sad8Scalar(anyExit bool) sad8Kernel {
	return func(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
		var sums [8][MBSize]int
		for k := range sums {
			sums[k] = sadPartials(cur, ref[k:], stride)
		}
		m := int32(0)
		for j := 3; j < MBSize; j += 4 {
			above := 0
			for k := range sums {
				out[k] = int32(sums[k][j])
				if sums[k][j] > earlyOut {
					above++
				}
			}
			m = slices.Min(out[:])
			if above == len(sums) || anyExit && above > 0 {
				break
			}
		}
		return m
	}
}

// sad8Mismatch runs kernel against sad8Go over block pairs at strides 16,
// 30 (the r = 7 window), 46 and 176, at unaligned ref offsets, and at
// earlyOut −1, 0, 1<<30 and the smallest of the eight partial sums at
// each exit row ±1, comparing the stored sums and the return value, and
// describes the first disagreement, or returns "". Both kernels start
// from the same garbage in out, so a missing store shows.
func sad8Mismatch(kernel sad8Kernel) string {
	rng := rand.New(rand.NewSource(22))
	for _, stride := range []int{16, 30, 46, 176} {
		buf := make([]byte, 3+15*stride+MBSize+7)
		for _, pair := range []struct {
			name     string
			cur, ref func() byte
		}{
			{"white-black", func() byte { return 255 }, func() byte { return 0 }},
			{"black-white", func() byte { return 0 }, func() byte { return 255 }},
			{"random", func() byte { return byte(rng.Intn(256)) }, func() byte { return byte(rng.Intn(256)) }},
			{"close", func() byte { return 100 + byte(rng.Intn(3)) }, func() byte { return 100 + byte(rng.Intn(3)) }},
		} {
			var cur MBPixels
			for i := range cur {
				cur[i] = pair.cur()
			}
			for i := range buf {
				buf[i] = pair.ref()
			}
			for off := 0; off <= 3; off++ {
				ref := buf[off:]
				var partials [8][MBSize]int
				for k := range partials {
					partials[k] = sadPartials(&cur, ref[k:], stride)
				}
				earlyOuts := []int{-1, 0, 1 << 30}
				for j := 3; j < MBSize-1; j += 4 {
					m := partials[0][j]
					for k := range partials {
						m = min(m, partials[k][j])
					}
					earlyOuts = append(earlyOuts, m-1, m, m+1)
				}
				for _, e := range earlyOuts {
					got := [8]int32{-7, -7, -7, -7, -7, -7, -7, -7}
					want := got
					gm, wm := kernel(&cur, ref, stride, e, &got), sad8Go(&cur, ref, stride, e, &want)
					if got != want || gm != wm {
						return fmt.Sprintf("%s stride %d offset %d earlyOut %d: got %v min %d, portable %v min %d",
							pair.name, stride, off, e, got, gm, want, wm)
					}
				}
			}
		}
	}
	return ""
}

// TestSAD8MatchesPortable holds the shipped eight-candidate kernel to the
// portable body, stored sums and returned minimum, on every exit path.
func TestSAD8MatchesPortable(t *testing.T) {
	if msg := sad8Mismatch(sad8); msg != "" {
		t.Fatal(msg)
	}
}

// TestSAD8ParityCatchesFaults is the negative control: the table must
// pass the scalar form of the contract and reject a kernel that stops
// when any partial sum, not every one, exceeds earlyOut.
func TestSAD8ParityCatchesFaults(t *testing.T) {
	if msg := sad8Mismatch(sad8Scalar(false)); msg != "" {
		t.Fatalf("scalar contract rejected: %s", msg)
	}
	if msg := sad8Mismatch(sad8Scalar(true)); msg == "" {
		t.Error("table passed a kernel that stops when any partial sum exceeds earlyOut")
	} else {
		t.Logf("any-lane exit caught: %s", msg)
	}
}

// FuzzSAD8Parity derives cur, ref, a stride of 0..176 and earlyOut from
// the fuzz bytes and holds sad8 to sad8Go.
func FuzzSAD8Parity(f *testing.F) {
	f.Add(uint8(30), 1<<30, []byte("eclipse sad8 kernel"))
	f.Add(uint8(16), 0, []byte{0, 255})
	f.Add(uint8(0), -1, []byte{7})
	f.Add(uint8(176), 2040, []byte{0x10, 0x80, 0xff, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, s uint8, earlyOut int, data []byte) {
		if len(data) == 0 {
			return
		}
		stride := int(s) % 177
		pix := func(i int) byte { return data[i%len(data)] + byte(i/len(data))*31 }
		var cur MBPixels
		for i := range cur {
			cur[i] = pix(i)
		}
		ref := make([]byte, 15*stride+MBSize+7)
		for i := range ref {
			ref[i] = pix(i + len(cur))
		}
		var got, want [8]int32
		gm, wm := sad8(&cur, ref, stride, earlyOut, &got), sad8Go(&cur, ref, stride, earlyOut, &want)
		if got != want || gm != wm {
			t.Fatalf("stride %d earlyOut %d: got %v min %d, portable %v min %d", stride, earlyOut, got, gm, want, wm)
		}
	})
}
