package media

import (
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

// TestTransformsDoNotAllocate pins the transforms and the per-macroblock
// stages built on them at zero allocations. On amd64 this rests on the
// //go:noescape of dct2dSSE2 and dct2dAVX2: without either, every block
// handed to the kernel escapes to the heap.
func TestTransformsDoNotAllocate(t *testing.T) {
	var mb [BlocksPerMB]Block
	for b := range mb {
		mb[b][0], mb[b][9], mb[b][63] = int16(40*b-100), -37, 5
	}
	var sink int16
	checkZeroAllocs(t, []allocCase{
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
		{"quantScan", func() {
			in := mb[2]
			var zz Block
			quantScan(&in, &zz, 5, true)
			sink += zz[0]
		}},
		{"DequantScan", func() {
			in := mb[3]
			var out Block
			DequantScan(&in, &out, 5)
			sink += out[0]
		}},
	})
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
