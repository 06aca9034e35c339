package media

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFDCTConstantBlock(t *testing.T) {
	// A constant block has all energy in DC: F[0,0] = 8*c/2 * ... with our
	// scaling, DC = c*8*alpha0^2/4 = 2c. Check AC terms are ~0.
	var src, dst Block
	for i := range src {
		src[i] = 100
	}
	FDCT(&src, &dst)
	if dst[0] < 780 || dst[0] > 820 { // 100*8 = 800 expected
		t.Fatalf("DC = %d, want ≈800", dst[0])
	}
	for i := 1; i < 64; i++ {
		if dst[i] < -2 || dst[i] > 2 {
			t.Fatalf("AC[%d] = %d, want ≈0", i, dst[i])
		}
	}
}

func TestIDCTInvertsFDCT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maxErr := 0
	for trial := 0; trial < 200; trial++ {
		var src, coef, back Block
		for i := range src {
			src[i] = int16(rng.Intn(512) - 256) // residual range
		}
		FDCT(&src, &coef)
		IDCT(&coef, &back)
		for i := range src {
			d := int(src[i]) - int(back[i])
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 2 {
		t.Fatalf("max reconstruction error %d > 2", maxErr)
	}
}

func TestFDCTEnergyCompaction(t *testing.T) {
	// Smooth content must concentrate energy in low frequencies.
	var src, coef Block
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			src[y*8+x] = int16(x*10 + y*5)
		}
	}
	FDCT(&src, &coef)
	var zz Block
	ZigzagScan(&coef, &zz)
	var low, high int
	for i := 0; i < 10; i++ {
		v := int(zz[i])
		if v < 0 {
			v = -v
		}
		low += v
	}
	for i := 32; i < 64; i++ {
		v := int(zz[i])
		if v < 0 {
			v = -v
		}
		high += v
	}
	if low <= high*4 {
		t.Fatalf("energy not compacted: low=%d high=%d", low, high)
	}
}

func TestZigzagBijection(t *testing.T) {
	seen := map[int]bool{}
	for _, p := range zigzag {
		if p < 0 || p > 63 || seen[p] {
			t.Fatalf("zigzag not a permutation: %v", zigzag)
		}
		seen[p] = true
	}
	// Spot-check the standard pattern.
	if zigzag[0] != 0 || zigzag[1] != 1 || zigzag[2] != 8 || zigzag[63] != 63 {
		t.Fatalf("zigzag prefix wrong: %v", zigzag[:4])
	}
}

func TestQuickZigzagRoundTrip(t *testing.T) {
	f := func(vals [64]int16) bool {
		src := Block(vals)
		var zz, back Block
		ZigzagScan(&src, &zz)
		InverseZigzag(&zz, &back)
		return back == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeDequantize(t *testing.T) {
	var src, q, dq Block
	src[0], src[1], src[2] = 100, -100, 5
	Quantize(&src, &q, 10)
	if q[0] != 5 || q[1] != -5 { // (100+10)/20 = 5
		t.Fatalf("q = %v", q[:3])
	}
	Dequantize(&q, &dq, 10)
	if dq[0] != 100 || dq[1] != -100 {
		t.Fatalf("dq = %v", dq[:3])
	}
}

func TestQuickQuantErrorBound(t *testing.T) {
	// Property: |x - dequant(quant(x))| ≤ q for any coefficient (uniform
	// quantizer with step 2q and symmetric rounding).
	f := func(vals [64]int16, qRaw uint8) bool {
		q := int(qRaw%31) + 1
		src := Block(vals)
		for i := range src {
			// keep away from the clamp region
			if src[i] > 16000 {
				src[i] = 16000
			}
			if src[i] < -16000 {
				src[i] = -16000
			}
		}
		var qd, dq Block
		Quantize(&src, &qd, q)
		Dequantize(&qd, &dq, q)
		for i := range src {
			// levels that hit the escape clamp are exempt
			if qd[i] == MaxLevel || qd[i] == -MaxLevel {
				continue
			}
			d := int(src[i]) - int(dq[i])
			if d < 0 {
				d = -d
			}
			if d > q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeInterDeadzone(t *testing.T) {
	var src, q Block
	src[0], src[1], src[2], src[3] = 11, -11, 12, -25
	QuantizeInter(&src, &q, 6) // step 12
	if q[0] != 0 || q[1] != 0 {
		t.Fatalf("deadzone failed: %v", q[:2])
	}
	if q[2] != 1 || q[3] != -2 {
		t.Fatalf("q = %v", q[:4])
	}
}

func TestQuickQuantInterErrorBound(t *testing.T) {
	// Property: |x - dequant(quantInter(x))| < 2q (truncation toward 0).
	f := func(vals [64]int16, qRaw uint8) bool {
		q := int(qRaw%31) + 1
		src := Block(vals)
		for i := range src {
			if src[i] > 16000 {
				src[i] = 16000
			}
			if src[i] < -16000 {
				src[i] = -16000
			}
		}
		var qd, dq Block
		QuantizeInter(&src, &qd, q)
		Dequantize(&qd, &dq, q)
		for i := range src {
			if qd[i] == MaxLevel || qd[i] == -MaxLevel {
				continue
			}
			d := int(src[i]) - int(dq[i])
			if d < 0 {
				d = -d
			}
			if d >= 2*q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeClampsToEscapeRange(t *testing.T) {
	var src, q Block
	src[0] = 32767
	Quantize(&src, &q, 1)
	if int32(q[0]) != MaxLevel {
		t.Fatalf("q[0] = %d, want %d", q[0], MaxLevel)
	}
	src[0] = -32768
	Quantize(&src, &q, 1)
	if int32(q[0]) != -MaxLevel {
		t.Fatalf("q[0] = %d, want %d", q[0], -MaxLevel)
	}
}

func TestCoarserQuantizerFewerCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var src, coef Block
	for i := range src {
		src[i] = int16(rng.Intn(256) - 128)
	}
	FDCT(&src, &coef)
	var zz Block
	ZigzagScan(&coef, &zz)
	var q1, q16 Block
	Quantize(&zz, &q1, 1)
	Quantize(&zz, &q16, 16)
	if NonzeroCount(&q16) >= NonzeroCount(&q1) {
		t.Fatalf("q16 nz %d >= q1 nz %d", NonzeroCount(&q16), NonzeroCount(&q1))
	}
}

func TestNonzeroCount(t *testing.T) {
	var b Block
	if NonzeroCount(&b) != 0 {
		t.Fatal("zero block")
	}
	b[3], b[63] = 1, -1
	if NonzeroCount(&b) != 2 {
		t.Fatal("count")
	}
}

func TestClamp16(t *testing.T) {
	if clamp16(40000) != 32767 || clamp16(-40000) != -32768 || clamp16(5) != 5 {
		t.Fatal("clamp16 broken")
	}
}

// idctMatrix and fdctMatrix are the reference model: the transforms as
// the plain 8×8 matrix product they were before the partial butterflies,
// every pass an 8-tap int32 dot product over dctTab with the same
// rounding and final clamp.
func idctMatrix(src, dst *Block) {
	var tmp [64]int32
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			var s int32
			for u := 0; u < 8; u++ {
				s += int32(src[v*8+u]) * dctTab[u][x]
			}
			tmp[v*8+x] = (s + fixRound) >> 12
		}
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var s int32
			for v := 0; v < 8; v++ {
				s += tmp[v*8+x] * dctTab[v][y]
			}
			dst[y*8+x] = clamp16((s + fixRound) >> 12)
		}
	}
}

func fdctMatrix(src, dst *Block) {
	var tmp [64]int32
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s int32
			for x := 0; x < 8; x++ {
				s += int32(src[y*8+x]) * dctTab[u][x]
			}
			tmp[y*8+u] = (s + fixRound) >> 12
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s int32
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctTab[v][y]
			}
			dst[v*8+u] = clamp16((s + fixRound) >> 12)
		}
	}
}

// transformMismatch runs both transforms and their matrix references on
// b and describes the first disagreement, or returns "".
func transformMismatch(b *Block) string {
	var got, want Block
	IDCT(b, &got)
	idctMatrix(b, &want)
	if got != want {
		return fmt.Sprintf("IDCT(%v) = %v, matrix product %v", *b, got, want)
	}
	FDCT(b, &got)
	fdctMatrix(b, &want)
	if got != want {
		return fmt.Sprintf("FDCT(%v) = %v, matrix product %v", *b, got, want)
	}
	return ""
}

// codedClip is one decode's worth of RLSQ input: the run/level events of
// every coded block of the Fig. 10 clip (QCIF, 12 frames, N=12 M=3) in
// stream order, and the sequence quantizer.
type codedClip struct {
	q      int
	events [][]RunLevel
}

func loadCodedClip(tb testing.TB) codedClip {
	tb.Helper()
	vld := NewStreamVLD()
	vld.Extend(goldenStream(tb))
	var clip codedClip
	for {
		ev, err := vld.Next()
		if err != nil {
			tb.Fatalf("at %s: %v", vld.Progress(), err)
		}
		switch ev.Kind {
		case EventSeq:
			clip.q = ev.Seq.Q
		case EventMB:
			for b := 0; b < BlocksPerMB; b++ {
				if ev.Tok.CBP&(1<<b) != 0 {
					clip.events = append(clip.events, append([]RunLevel(nil), ev.Tok.Events[b]...))
				}
			}
		case EventEnd:
			return clip
		}
	}
}

// coefBlocks returns the dequantized coefficient blocks the decoder feeds
// the IDCT, one per coded block.
func (c codedClip) coefBlocks(tb testing.TB) []Block {
	tb.Helper()
	blocks := make([]Block, len(c.events))
	for i, ev := range c.events {
		if err := RLSQTokensToCoef(ev, c.q, &blocks[i]); err != nil {
			tb.Fatalf("coded block %d: %v", i, err)
		}
	}
	return blocks
}

// transformBlocks returns the block set of the transform parity tests:
// edge-case blocks (zero, DC-only, every single-coefficient block at ±1,
// 32767 and −32768), random dense blocks over the whole int16 range (the
// largest sums either transform can form) and random sparse blocks; and,
// apart, every coded block of the Fig. 10 clip.
func transformBlocks(tb testing.TB) (blocks, coded []Block) {
	tb.Helper()
	blocks = append(blocks, Block{})
	for _, dc := range []int16{1, -1, 255, -256, 32767, -32768} {
		blocks = append(blocks, Block{dc})
	}
	for i := 0; i < 64; i++ {
		for _, c := range []int16{1, -1, 32767, -32768} {
			var b Block
			b[i] = c
			blocks = append(blocks, b)
		}
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		var b Block
		for i := range b {
			b[i] = int16(rng.Uint32())
		}
		blocks = append(blocks, b)
	}
	for trial := 0; trial < 2000; trial++ {
		var b Block
		for n := rng.Intn(8); n >= 0; n-- {
			b[rng.Intn(64)] = int16(rng.Intn(2048) - 1024)
		}
		blocks = append(blocks, b)
	}
	clip := loadCodedClip(tb)
	coded = clip.coefBlocks(tb)
	if len(coded) == 0 {
		tb.Fatal("clip has no coded blocks")
	}
	return blocks, coded
}

// TestTransformsMatchMatrixProduct is the exactness property: IDCT and
// FDCT return the matrix product's block, bit for bit, on every block of
// transformBlocks, coded blocks included.
func TestTransformsMatchMatrixProduct(t *testing.T) {
	blocks, coded := transformBlocks(t)
	blocks = append(blocks, coded...)
	for i := range blocks {
		if msg := transformMismatch(&blocks[i]); msg != "" {
			t.Fatalf("block %d: %s", i, msg)
		}
	}
}

// TestTransformsDoNotAllocate pins the transforms and the per-macroblock
// stages built on them at zero allocations. On amd64 this rests on
// dct2dSSE2's //go:noescape: without it every block handed to the kernel
// escapes to the heap.
func TestTransformsDoNotAllocate(t *testing.T) {
	var mb [BlocksPerMB]Block
	for b := range mb {
		mb[b][0], mb[b][9], mb[b][63] = int16(40*b-100), -37, 5
	}
	var sink int16
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"IDCT", func() {
			in := mb[0]
			var out Block
			IDCT(&in, &out)
			sink += out[0]
		}},
		{"FDCT", func() {
			in := mb[1]
			var out Block
			FDCT(&in, &out)
			sink += out[0]
		}},
		{"IDCTMB", func() {
			in := mb
			var out [BlocksPerMB]Block
			IDCTMB(&in, 0x2D, &out)
			sink += out[0][0]
		}},
		{"TransformMB", func() {
			in := mb
			qzz, _, _ := TransformMB(&in, false, 4)
			sink += qzz[0][0]
		}},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestDCTBasisSymmetry pins the symmetries of the rounded basis that the
// butterflies fold on: dctTab[u][7-x] = (-1)^u dctTab[u][x] for every row,
// and dctTab[u][3-x] = (-1)^(u/2) dctTab[u][x] for the even rows.
func TestDCTBasisSymmetry(t *testing.T) {
	for u := 0; u < 8; u++ {
		sign := int32(1 - 2*(u&1))
		for x := 0; x < 8; x++ {
			if dctTab[u][7-x] != sign*dctTab[u][x] {
				t.Errorf("dctTab[%d][%d] = %d, want %d·dctTab[%d][%d] = %d", u, 7-x, dctTab[u][7-x], sign, u, x, sign*dctTab[u][x])
			}
		}
		if u&1 != 0 {
			continue
		}
		sign = int32(1 - 2*(u>>1&1))
		for x := 0; x < 4; x++ {
			if dctTab[u][3-x] != sign*dctTab[u][x] {
				t.Errorf("dctTab[%d][%d] = %d, want %d·dctTab[%d][%d] = %d", u, 3-x, dctTab[u][3-x], sign, u, x, sign*dctTab[u][x])
			}
		}
	}
}

// FuzzTransformParity reads 128 fuzz bytes as one little-endian block
// (short input is zero-padded, so sparse blocks are easy to reach) and
// checks both transforms against the matrix product, and on amd64 the
// SSE2 kernel's verdict and output against the Go bodies (kernelMismatch).
// Its second arm reads
// the same bytes as run/level events and checks RLSQTokensToCoef against
// the three-step reference.
func FuzzTransformParity(f *testing.F) {
	f.Add(uint8(5), []byte{})
	f.Add(uint8(0), []byte{0x00, 0x80})
	f.Add(uint8(30), []byte{0xff, 0x7f, 0x01, 0x00, 0x00, 0x80, 0x03, 0x00, 0xfe, 0xff})
	f.Add(uint8(12), []byte("eclipse dct coprocessor butterflies"))
	f.Fuzz(func(t *testing.T, q uint8, data []byte) {
		var buf [128]byte
		copy(buf[:], data)
		var b Block
		for i := range b {
			b[i] = int16(binary.LittleEndian.Uint16(buf[2*i:]))
		}
		if msg := transformMismatch(&b); msg != "" {
			t.Fatal(msg)
		}
		if msg := kernelMismatch(&b); msg != "" {
			t.Fatal(msg)
		}
		// Event i: a signed run from byte 4i, a 24-bit signed level from
		// bytes 4i+1..4i+3 (outside int16, to reach the truncation).
		events := make([]RunLevel, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			lvl := int32(binary.LittleEndian.Uint32(data[i:])) >> 8
			events = append(events, RunLevel{Run: int(int8(data[i])), Level: lvl})
		}
		if msg := rlsqMismatch(events, int(q%31)+1); msg != "" {
			t.Fatal(msg)
		}
	})
}
