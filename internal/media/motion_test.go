package media

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFrame(w, h int, seed int64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	f := NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

func TestSADIdenticalIsZero(t *testing.T) {
	f := randomFrame(64, 64, 1)
	var mb MBPixels
	f.GetMB(1, 1, &mb)
	if s := SAD(&mb, f, 16, 16, MV{}, 1<<30); s != 0 {
		t.Fatalf("SAD = %d", s)
	}
}

func TestSADEarlyOut(t *testing.T) {
	f := randomFrame(64, 64, 2)
	g := randomFrame(64, 64, 3)
	var mb MBPixels
	f.GetMB(0, 0, &mb)
	full := SAD(&mb, g, 0, 0, MV{}, 1<<30)
	early := SAD(&mb, g, 0, 0, MV{}, 10)
	if early <= 10 {
		t.Fatalf("early-out result %d not above bound", early)
	}
	if early > full {
		t.Fatalf("early %d > full %d", early, full)
	}
}

func TestSADEdgeClamping(t *testing.T) {
	f := randomFrame(32, 32, 4)
	var mb MBPixels
	f.GetMB(0, 0, &mb)
	// A vector pointing off-frame must match the clamped scalar sum.
	if s, want := SAD(&mb, f, 0, 0, MV{-20, -20}, 1<<30), sadRaster(&mb, f, 0, 0, MV{-20, -20}, 1<<30); s != want {
		t.Fatalf("SAD = %d, want %d", s, want)
	}
}

func TestMotionSearchFindsTranslation(t *testing.T) {
	// Build a reference, then a current frame that is the reference
	// shifted by a known vector; the search must recover it.
	ref := NewFrame(96, 96)
	rng := rand.New(rand.NewSource(5))
	for i := range ref.Pix {
		ref.Pix[i] = byte(rng.Intn(256))
	}
	const dx, dy = 3, -2
	cur := NewFrame(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			cur.Pix[y*96+x] = ref.At(x+dx, y+dy)
		}
	}
	var mb MBPixels
	cur.GetMB(2, 2, &mb)
	res := MotionSearch(&mb, ref, 32, 32, 7)
	if res.MV != (MV{dx, dy}) || res.SAD != 0 {
		t.Fatalf("found %+v", res)
	}
	if res.Ops < 2 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

func TestMotionSearchZeroBiasOnTies(t *testing.T) {
	// On a constant frame every vector ties at SAD 0; zero must win so
	// P-frames produce skip macroblocks.
	ref := NewFrame(64, 64)
	for i := range ref.Pix {
		ref.Pix[i] = 128
	}
	var mb MBPixels
	for i := range mb {
		mb[i] = 128
	}
	res := MotionSearch(&mb, ref, 16, 16, 5)
	if res.MV != (MV{}) {
		t.Fatalf("tie broken to %+v, want zero vector", res.MV)
	}
}

// TestMotionKernelsDoNotAllocate pins every scratch array handed to the
// SAD and MC kernels to the stack: the search grid's eight sums ([8]int32)
// and, for border macroblocks, its clamped window copy; RefineHalfPel's
// and the bi-directional SAD's predictions; IntraActivity's row
// (DecideMB); the exported SAD's clamped block; and the MC kernels'
// operands — Reconstruct, Residual, a full-pel bi-predictive PredictHP at
// a border macroblock (its second reference block) and a forward one whose
// vector points outside the frame (the clamped fetch); and predView's
// scratch, for a view read in place and a half-pel bi-directional one.
func TestMotionKernelsDoNotAllocate(t *testing.T) {
	cur, ref, bwd := randomFrame(176, 144, 13), randomFrame(176, 144, 14), randomFrame(176, 144, 15)
	var cases []allocCase
	for _, c := range []struct {
		name     string
		mbx, mby int
		r        int
	}{
		{"interior r=7", 5, 4, 7},
		{"corner r=7", 10, 8, 7},
		{"interior r=63", 5, 4, 63},
		{"corner r=63", 0, 0, 63},
	} {
		var mb MBPixels
		cur.GetMB(c.mbx, c.mby, &mb)
		cases = append(cases, allocCase{"MotionSearch " + c.name, func() {
			benchSink += MotionSearch(&mb, ref, c.mbx*MBSize, c.mby*MBSize, c.r).SAD
		}})
	}
	var mb MBPixels
	cur.GetMB(0, 8, &mb)
	checkZeroAllocs(t, append(cases, []allocCase{
		{"DecideMB B macroblock with half-pel", func() {
			_, ops := DecideMB(&mb, FrameB, 0, 8*MBSize, ref, bwd, 7, true)
			benchSink += ops
		}},
		{"SAD at an out-of-frame vector", func() {
			benchSink += SAD(&mb, ref, 0, 8*MBSize, MV{-5, 3}, 1<<30)
		}},
		{"Residual", func() {
			var pred MBPixels
			var blocks [BlocksPerMB]Block
			Residual(&mb, &pred, &blocks)
			benchSink += int(blocks[3][63])
		}},
		{"Reconstruct", func() {
			var pred, out MBPixels
			var blocks [BlocksPerMB]Block
			Reconstruct(&out, &pred, &blocks)
			benchSink += int(out[255])
		}},
		{"PredictHP bi at a border macroblock", func() {
			var pred MBPixels
			PredictHP(&pred, PredBi, ref, bwd, 0, 8*MBSize, MV{-3, 2}, MV{4, 5}, false)
			benchSink += int(pred[0])
		}},
		{"PredictHP fwd at an out-of-frame vector", func() {
			var pred MBPixels
			PredictHP(&pred, PredFwd, ref, bwd, 0, 8*MBSize, MV{-20, 9}, MV{}, false)
			benchSink += int(pred[0])
		}},
		{"predView fwd in place", func() {
			var scratch MBPixels
			pix, stride := predView(&scratch, PredFwd, ref, bwd, 5*MBSize, 4*MBSize, MV{3, -2}, MV{}, false)
			benchSink += int(pix[15*stride+15])
		}},
		{"predView bi with half-pel at a border macroblock", func() {
			var scratch MBPixels
			pix, stride := predView(&scratch, PredBi, ref, bwd, 0, 8*MBSize, MV{-3, 2}, MV{4, 5}, true)
			benchSink += int(pix[15*stride+15])
		}},
	}...))
}

func TestPredictModes(t *testing.T) {
	fwd := randomFrame(64, 64, 6)
	bwd := randomFrame(64, 64, 7)
	var p MBPixels

	Predict(&p, PredIntra, nil, nil, 0, 0, MV{}, MV{})
	for _, v := range p {
		if v != 128 {
			t.Fatal("intra prediction must be 128")
		}
	}

	Predict(&p, PredFwd, fwd, bwd, 16, 16, MV{2, 1}, MV{})
	var want MBPixels
	fetch(&want, fwd, 18, 17)
	if p != want {
		t.Fatal("fwd prediction mismatch")
	}

	Predict(&p, PredBwd, fwd, bwd, 16, 16, MV{}, MV{-1, 3})
	fetch(&want, bwd, 15, 19)
	if p != want {
		t.Fatal("bwd prediction mismatch")
	}

	Predict(&p, PredSkip, fwd, bwd, 32, 32, MV{5, 5}, MV{})
	fetch(&want, fwd, 32, 32) // skip ignores vectors
	if p != want {
		t.Fatal("skip prediction mismatch")
	}

	Predict(&p, PredBi, fwd, bwd, 16, 16, MV{1, 0}, MV{0, 1})
	var a, b MBPixels
	fetch(&a, fwd, 17, 16)
	fetch(&b, bwd, 16, 17)
	for i := range p {
		if int(p[i]) != (int(a[i])+int(b[i])+1)/2 {
			t.Fatal("bi prediction mismatch")
		}
	}
}

func TestQuickResidualReconstructInverse(t *testing.T) {
	// Property: Reconstruct(pred, Residual(cur, pred)) == cur for any
	// cur/pred (residuals fit in int16 and no clamping occurs on the way
	// back because cur is a valid byte).
	f := func(curRaw, predRaw [256]byte) bool {
		cur := MBPixels(curRaw)
		pred := MBPixels(predRaw)
		var blocks [BlocksPerMB]Block
		Residual(&cur, &pred, &blocks)
		var back MBPixels
		Reconstruct(&back, &pred, &blocks)
		return back == cur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualBlockLayout(t *testing.T) {
	var cur, pred MBPixels
	// Mark one pixel in each quadrant.
	cur[0] = 10          // block 0 (top-left)
	cur[8] = 20          // block 1 (top-right)
	cur[8*MBSize] = 30   // block 2 (bottom-left)
	cur[8*MBSize+8] = 40 // block 3 (bottom-right)
	var blocks [BlocksPerMB]Block
	Residual(&cur, &pred, &blocks)
	if blocks[0][0] != 10 || blocks[1][0] != 20 || blocks[2][0] != 30 || blocks[3][0] != 40 {
		t.Fatalf("layout: %d %d %d %d", blocks[0][0], blocks[1][0], blocks[2][0], blocks[3][0])
	}
}

func TestIntraActivity(t *testing.T) {
	var flat MBPixels
	for i := range flat {
		flat[i] = 77
	}
	if IntraActivity(&flat) != 0 {
		t.Fatal("flat block must have zero activity")
	}
	var busy MBPixels
	for i := range busy {
		if i%2 == 0 {
			busy[i] = 255
		}
	}
	if IntraActivity(&busy) == 0 {
		t.Fatal("busy block must have nonzero activity")
	}
}

func TestFrameAtClamps(t *testing.T) {
	f := NewFrame(16, 16)
	f.Pix[0] = 9
	f.Pix[15] = 8
	f.Pix[15*16] = 7
	f.Pix[255] = 6
	if f.At(-5, -5) != 9 || f.At(100, -1) != 8 || f.At(-1, 100) != 7 || f.At(99, 99) != 6 {
		t.Fatal("clamping broken")
	}
}

func TestGetSetMBRoundTrip(t *testing.T) {
	f := randomFrame(48, 32, 8)
	var mb MBPixels
	f.GetMB(2, 1, &mb)
	g := NewFrame(48, 32)
	g.SetMB(2, 1, &mb)
	var back MBPixels
	g.GetMB(2, 1, &back)
	if back != mb {
		t.Fatal("roundtrip failed")
	}
}

func TestSourceDeterministicAndMoving(t *testing.T) {
	cfg := DefaultSource(64, 48)
	a := NewSource(cfg).Frames(5)
	b := NewSource(cfg).Frames(5)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("frame %d differs between identical sources", i)
		}
	}
	if a[0].Equal(a[4]) {
		t.Fatal("source produces static video")
	}
}

func TestSourceSceneCut(t *testing.T) {
	cfg := DefaultSource(64, 48)
	cfg.SceneCut = 3
	cfg.Noise = 0
	frames := NewSource(cfg).Frames(6)
	// Difference across the cut must exceed difference within a scene.
	diff := func(a, b *Frame) int {
		d := 0
		for i := range a.Pix {
			v := int(a.Pix[i]) - int(b.Pix[i])
			if v < 0 {
				v = -v
			}
			d += v
		}
		return d
	}
	within := diff(frames[1], frames[2])
	across := diff(frames[2], frames[3])
	if across <= within*2 {
		t.Fatalf("scene cut not visible: within=%d across=%d", within, across)
	}
}

func TestPSNR(t *testing.T) {
	f := randomFrame(32, 32, 10)
	if p := f.PSNR(f.Clone()); p < 1e300 {
		t.Fatalf("identical frames PSNR = %v", p)
	}
	g := f.Clone()
	for i := range g.Pix {
		g.Pix[i] = clampByte(int(g.Pix[i]) + 10)
	}
	p := f.PSNR(g)
	if p < 20 || p > 40 {
		t.Fatalf("PSNR = %v, want ≈28", p)
	}
}
