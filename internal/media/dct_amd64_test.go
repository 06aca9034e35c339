package media

import (
	"fmt"
	"math/rand"
	"testing"
)

// rowPassFits is the oracle of the kernel's verdict: whether every output
// of the Go bodies' row pass, (inv8 or fwd8 of a row + 2048) >> 12, lies
// in int16.
func rowPassFits(src *Block, forward bool) bool {
	pass := inv8
	if forward {
		pass = fwd8
	}
	for r := 0; r < 8; r++ {
		c := (*[8]int16)(src[r*8:])
		t0, t1, t2, t3, t4, t5, t6, t7 := pass(int32(c[0]), int32(c[1]), int32(c[2]), int32(c[3]),
			int32(c[4]), int32(c[5]), int32(c[6]), int32(c[7]))
		for _, t := range [8]int32{t0, t1, t2, t3, t4, t5, t6, t7} {
			if x := (t + fixRound) >> 12; x != int32(int16(x)) {
				return false
			}
		}
	}
	return true
}

// garbageBlock prefills the kernel's dst, so that a declined block that
// wrote anything shows.
var garbageBlock = func() (g Block) {
	for i := range g {
		g[i] = int16(i*7919 - 12345)
	}
	return g
}()

// kernelMismatch runs dct2dSSE2 on b with both tables, into a prefilled
// dst and in place, and describes the first breach of its contract, or
// returns "": the verdict is rowPassFits, an accepted block's output is
// the Go body's, and a declined block leaves dst as it was.
func kernelMismatch(b *Block) string {
	for _, k := range []struct {
		name    string
		m       *dctPassTab
		body    func(src, dst *Block)
		forward bool
	}{
		{"IDCT", &idctPass, idctGo, false},
		{"FDCT", &fdctPass, fdctGo, true},
	} {
		fits := rowPassFits(b, k.forward)
		got := garbageBlock
		ok := dct2dSSE2(b, &got, k.m)
		inPlace := *b
		okInPlace := dct2dSSE2(&inPlace, &inPlace, k.m)
		var want Block
		k.body(b, &want)
		wantInPlace := want
		if !fits {
			want, wantInPlace = garbageBlock, *b
		}
		switch {
		case ok != fits:
			return fmt.Sprintf("%s kernel on %v: accepted = %v, row pass fits int16 = %v", k.name, *b, ok, fits)
		case okInPlace != ok:
			return fmt.Sprintf("%s kernel on %v: accepted = %v, in place %v", k.name, *b, ok, okInPlace)
		case got != want:
			return fmt.Sprintf("%s kernel on %v (accepted %v) left dst %v, want %v", k.name, *b, ok, got, want)
		case inPlace != wantInPlace:
			return fmt.Sprintf("%s kernel in place on %v (accepted %v) left %v, want %v", k.name, *b, ok, inPlace, wantInPlace)
		}
	}
	return ""
}

// boundaryBlock returns a block whose only nonzero row, row r, gives
// row-pass output j the value target under the inverse (M = dctTab) or
// forward (M = dctTabᵀ) table, with every other output near zero. The
// row starts at target·M[·][j]/4096, the transform's inverse direction,
// and its largest weight is stepped until the rounded sum is exact; a
// step moves the sum by at most 2048, half the rounding window.
func boundaryBlock(forward bool, r, j int, target int32) Block {
	w := func(k int) int32 {
		if forward {
			return dctTab[j][k]
		}
		return dctTab[k][j]
	}
	var b Block
	row := b[r*8 : r*8+8]
	kmax := 0
	for k := range row {
		row[k] = int16(target * w(k) / 4096)
		if absInt(int(w(k))) > absInt(int(w(kmax))) {
			kmax = k
		}
	}
	step := int16(1)
	if w(kmax) < 0 {
		step = -1
	}
	for {
		var sum int32
		for k := range row {
			sum += int32(row[k]) * w(k)
		}
		switch x := (sum + fixRound) >> 12; {
		case x < target:
			row[kmax] += step
		case x > target:
			row[kmax] -= step
		default:
			return b
		}
	}
}

// TestDCT2DMatchesButterflies holds the SSE2 kernel to its contract
// (kernelMismatch) under both tables over transformBlocks, BenchmarkIDCT's
// blocks, dense blocks at three amplitudes and blocks whose one extreme
// row-pass output is exactly 32767, 32768, −32768 or −32769. Every coded block of the Fig. 10 clip and
// every residual-range block must be accepted, so a kernel that declines
// everything fails here too.
func TestDCT2DMatchesButterflies(t *testing.T) {
	blocks, coded := transformBlocks(t)
	dense, declined := idctBenchBlocks()
	blocks = append(blocks, dense, declined)
	blocks = append(blocks, coded...)
	// transformBlocks' dense blocks span all of int16 and are nearly all
	// declined; these are dense blocks on both sides of the verdict.
	rng := rand.New(rand.NewSource(35))
	for _, amp := range []int{1 << 11, 1 << 14, 3 << 13} {
		for trial := 0; trial < 500; trial++ {
			var b Block
			for i := range b {
				b[i] = int16(rng.Intn(2*amp) - amp)
			}
			blocks = append(blocks, b)
		}
	}
	for _, forward := range []bool{false, true} {
		for _, j := range []int{0, 3, 7} {
			for _, target := range []int32{32767, 32768, -32768, -32769} {
				b := boundaryBlock(forward, j, j, target)
				if fits := target == int32(int16(target)); rowPassFits(&b, forward) != fits {
					t.Fatalf("boundary block (forward %v, output %d, %d) = %v: rowPassFits %v", forward, j, target, b, !fits)
				}
				blocks = append(blocks, b)
			}
		}
	}
	for i := range blocks {
		if msg := kernelMismatch(&blocks[i]); msg != "" {
			t.Fatalf("block %d: %s", i, msg)
		}
	}

	var out Block
	if dct2dSSE2(&declined, &out, &idctPass) {
		t.Error("BenchmarkIDCT/declined's block is accepted")
	}
	for i := range coded {
		if !dct2dSSE2(&coded[i], &out, &idctPass) {
			t.Fatalf("coded block %d of %d declined: %v", i, len(coded), coded[i])
		}
	}
	for trial := 0; trial < 1000; trial++ {
		var b Block
		for i := range b {
			b[i] = int16(rng.Intn(512) - 256)
		}
		if !dct2dSSE2(&b, &out, &fdctPass) {
			t.Fatalf("residual block %v declined by the forward table", b)
		}
	}
}
