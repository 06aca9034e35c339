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

// dctButterflies runs the Go body of one direction on a copy of src, so
// that dst may be src.
func dctButterflies(src, dst *Block, forward bool) {
	s := *src
	if forward {
		fdctGo(&s, dst)
	} else {
		idctGo(&s, dst)
	}
}

// dct2dModel is the kernel's Go model and oracle: decline, leaving dst
// alone, when a row-pass output leaves int16; else the Go body.
func dct2dModel(src, dst *Block, forward bool) bool {
	if !rowPassFits(src, forward) {
		return false
	}
	dctButterflies(src, dst, forward)
	return true
}

// dct2dMismatch runs k and the model on b under both tables, into a
// prefilled dst and in place.
func dct2dMismatch(k dctKernel, b *Block) string {
	for _, forward := range []bool{false, true} {
		got, want := garbageBlock, garbageBlock
		ok, fits := k(b, &got, forward), dct2dModel(b, &want, forward)
		gotIn, wantIn := *b, *b
		okIn := k(&gotIn, &gotIn, forward)
		dct2dModel(&wantIn, &wantIn, forward)
		if ok != fits || okIn != fits || got != want || gotIn != wantIn {
			return fmt.Sprintf("forward %v on %v: accepted %v (in place %v), dst %v (in place %v); model accepted %v, dst %v (in place %v)",
				forward, *b, ok, okIn, got, gotIn, fits, want, wantIn)
		}
	}
	return ""
}

// dct2dFuzz checks every body of dct2d this host runs.
func init() {
	dct2dFuzz = func(b *Block) string {
		for _, body := range kernelBodies {
			if body.skip != "" {
				continue
			}
			if msg := dct2dMismatch(body.dct2d, b); msg != "" {
				return body.name + ": " + msg
			}
		}
		return ""
	}
}

// boundaryBlock returns a block whose only nonzero row, row r, gives
// row-pass output j the value target under the inverse (M = dctTab) or
// forward (M = dctTabᵀ) table, with every other output near zero. The
// row starts at target·M[·][j]/4096, the transform's inverse direction,
// and its largest weight is stepped until the rounded sum is exact; a
// step moves the sum by at most 2048, half the rounding window.
func boundaryBlock(forward bool, r, j int, target int32) Block {
	m := &dctTab
	if forward {
		m = &dctTabT
	}
	w := func(k int) int32 { return m[k][j] }
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

// dct2dContract's inputs are transformBlocks, BenchmarkIDCT's blocks,
// dense blocks at three amplitudes, residual-range blocks and blocks whose
// one extreme row-pass output is 32767, 32768, −32768 or −32769. Coded and
// residual-range blocks must be accepted, so a kernel that declines
// everything fails too. TestDCT2DMatchesButterflies holds each body of
// dct2d (kernelBodies) to it directly, not through the dispatch.
func dct2dContract(t *testing.T) *contract[dctKernel] {
	dense, declined := idctBenchBlocks()
	blocks := append(transformBlocks(t), dense, declined)
	if rowPassFits(&declined, false) {
		t.Error("BenchmarkIDCT/declined's block is accepted")
	}
	coded := loadCodedClip(t).coef
	for i := range coded {
		if !rowPassFits(&coded[i], false) {
			t.Fatalf("coded block %d of %d declined: %v", i, len(coded), coded[i])
		}
	}
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
	for trial := 0; trial < 1000; trial++ {
		var b Block
		for i := range b {
			b[i] = int16(rng.Intn(512) - 256)
		}
		if !rowPassFits(&b, true) {
			t.Fatalf("residual block %v declined by the forward table", b)
		}
		blocks = append(blocks, b)
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
	neverDeclines := func(src, dst *Block, forward bool) bool {
		dctButterflies(src, dst, forward)
		return true
	}
	writesOnDecline := func(src, dst *Block, forward bool) bool {
		fits := rowPassFits(src, forward)
		dctButterflies(src, dst, forward)
		return fits
	}
	return &contract[dctKernel]{
		n:        len(blocks),
		mismatch: func(k dctKernel, i int) string { return dct2dMismatch(k, &blocks[i]) },
		kernel:   asmDCT2D(dct2d),
		oracle:   dct2dModel,
		faults: []fault[dctKernel]{
			{"a kernel that never declines", neverDeclines},
			{"a kernel that writes dst when it declines", writesOnDecline},
		},
	}
}

func TestDCT2DMatchesButterflies(t *testing.T) {
	c := dct2dContract(t)
	eachKernelBody(t, func(t *testing.T, b kernelBody) {
		c.kernel = b.dct2d
		c.holds(t)
	})
	c.checkFaults(t)
}
