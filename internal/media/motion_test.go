package media

import (
	"fmt"
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
	// A vector pointing off-frame must still return a finite, clamped SAD.
	s := SAD(&mb, f, 0, 0, MV{-20, -20}, 1<<30)
	if s < 0 {
		t.Fatalf("SAD = %d", s)
	}
	// And match the explicit clamped computation.
	want := 0
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			d := int(mb[j*MBSize+i]) - int(f.At(i-20, j-20))
			if d < 0 {
				d = -d
			}
			want += d
		}
	}
	if s != want {
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

// sadRaster and motionSearchRaster are the reference model: the SAD and
// the raster full search exactly as they stood before MotionSearch gained
// its search window, elimination bound and SWAR rows. Every candidate's
// pixels are read, in raster order after the zero vector, and a candidate
// replaces the best only when strictly better.
func sadRaster(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int {
	sum := 0
	rx, ry := x+int(mv.X), y+int(mv.Y)
	inside := rx >= 0 && ry >= 0 && rx+MBSize <= ref.W && ry+MBSize <= ref.H
	if inside {
		base := ry*ref.W + rx
		for j := 0; j < MBSize; j++ {
			row := ref.Pix[base : base+MBSize : base+MBSize]
			crow := cur[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
			for i := 0; i < MBSize; i++ {
				d := int(crow[i]) - int(row[i])
				m := d >> 63 // 0 or -1
				sum += (d ^ m) - m
			}
			if sum > earlyOut {
				return sum
			}
			base += ref.W
		}
		return sum
	}
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			d := int(cur[j*MBSize+i]) - int(ref.At(rx+i, ry+j))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum > earlyOut {
			return sum
		}
	}
	return sum
}

func motionSearchRaster(cur *MBPixels, ref *Frame, x, y, r int) SearchResult {
	best := SearchResult{MV: MV{}, SAD: sadRaster(cur, ref, x, y, MV{}, 1<<30), Ops: 1}
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			mv := MV{int16(dx), int16(dy)}
			s := sadRaster(cur, ref, x, y, mv, best.SAD)
			best.Ops++
			if s < best.SAD {
				best.SAD = s
				best.MV = mv
			}
		}
	}
	return best
}

type searchFunc func(cur *MBPixels, ref *Frame, x, y, r int) SearchResult

// eliminationSearch is a test-local successive-elimination search — the
// block sum taken pixel by pixel, no window, no SWAR — with the two faults
// the parity harness must be able to see. With slack 0 and reverse false
// it is exact; slack 1 rejects at bound ≥ best−1, discarding a candidate
// that wins by exactly 1; reverse scans the candidates bottom-right to
// top-left, which changes the winner among tied candidates.
func eliminationSearch(slack int, reverse bool) searchFunc {
	return func(cur *MBPixels, ref *Frame, x, y, r int) SearchResult {
		curSum := 0
		for _, p := range cur {
			curSum += int(p)
		}
		n := 2*r + 1
		best := SearchResult{SAD: sadRaster(cur, ref, x, y, MV{}, 1<<30), Ops: n * n}
		for k := 0; k < n*n; k++ {
			c := k
			if reverse {
				c = n*n - 1 - k
			}
			dx, dy := c%n-r, c/n-r
			if dx == 0 && dy == 0 {
				continue
			}
			bound := -curSum
			for j := 0; j < MBSize; j++ {
				for i := 0; i < MBSize; i++ {
					bound += int(ref.At(x+dx+i, y+dy+j))
				}
			}
			if bound < 0 {
				bound = -bound
			}
			if bound >= best.SAD-slack {
				continue
			}
			mv := MV{int16(dx), int16(dy)}
			if s := sadRaster(cur, ref, x, y, mv, best.SAD); s < best.SAD {
				best.SAD, best.MV = s, mv
			}
		}
		return best
	}
}

// searchParityRanges are the radii every parity case is searched at: none,
// the smallest, the codec default, and windows that reach outside every
// test frame up to the largest CodecConfig accepts.
var searchParityRanges = []int{0, 1, 7, 15, 31, 63}

type searchParityPair struct {
	kind     string
	cur, ref *Frame
}

// searchParityFrames builds the (current, reference) pairs of the parity
// harness for one frame size: each kind stresses a different part of the
// search.
func searchParityFrames(w, h int, seed int64) []searchParityPair {
	rng := rand.New(rand.NewSource(seed))
	fill := func(gen func() byte) *Frame {
		f := NewFrame(w, h)
		for i := range f.Pix {
			f.Pix[i] = gen()
		}
		return f
	}
	pairs := []searchParityPair{
		// No structure: the bound rejects little, early-outs do the work.
		{"random", fill(func() byte { return byte(rng.Intn(256)) }), fill(func() byte { return byte(rng.Intn(256)) })},
		// Mass ties among good candidates: a reordered scan or a bound
		// that rejects an equal-but-earlier candidate picks another vector.
		{"two-valued", fill(func() byte { return 40 + 9*byte(rng.Intn(2)) }), fill(func() byte { return 40 + 9*byte(rng.Intn(2)) })},
		// Every vector ties: zero must win, at any SAD.
		{"constant", fill(func() byte { return 128 }), fill(func() byte { return 128 })},
		{"constant-diff", fill(func() byte { return 90 }), fill(func() byte { return 97 })},
		// A flat block against sparse +1 speckle: every candidate's SAD
		// equals its bound and neighbours differ by 0 or 1, so candidates
		// that win by exactly 1 with the bound at best−1 are everywhere.
		{"speckle", fill(func() byte { return 100 }), fill(func() byte {
			if rng.Intn(40) == 0 {
				return 101
			}
			return 100
		})},
	}
	// A shifted copy with noise: a true motion match, found at a vector
	// that points outside the frame for border macroblocks.
	ref := fill(func() byte { return byte(rng.Intn(256)) })
	cur := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cur.Pix[y*w+x] = clampByte(int(ref.At(x+3, y-2)) + rng.Intn(5) - 2)
		}
	}
	return append(pairs, searchParityPair{"shifted", cur, ref})
}

// searchParityMismatch runs search against motionSearchRaster over every
// frame kind × size × radius × macroblock of the harness and describes the
// first disagreement in any of the three result fields, or returns "".
// Sizes include frames smaller than the window in one or both axes and
// non-square ones; macroblocks include all four borders and corners. Radii
// above 15 reach outside these frames from every macroblock, so they run
// on the corners and the centre only: the reference takes milliseconds
// per macroblock there.
func searchParityMismatch(search searchFunc, ranges []int) string {
	sizes := [][2]int{{16, 16}, {32, 16}, {48, 80}, {80, 48}}
	for si, sz := range sizes {
		for _, pair := range searchParityFrames(sz[0], sz[1], int64(100+si)) {
			cur, ref := pair.cur, pair.ref
			for _, r := range ranges {
				for mby := 0; mby < cur.MBRows(); mby++ {
					for mbx := 0; mbx < cur.MBCols(); mbx++ {
						corner := (mbx == 0 || mbx == cur.MBCols()-1) && (mby == 0 || mby == cur.MBRows()-1)
						if r > 15 && !corner && (mbx != cur.MBCols()/2 || mby != cur.MBRows()/2) {
							continue
						}
						var mb MBPixels
						cur.GetMB(mbx, mby, &mb)
						x, y := mbx*MBSize, mby*MBSize
						want := motionSearchRaster(&mb, ref, x, y, r)
						if got := search(&mb, ref, x, y, r); got != want {
							return fmt.Sprintf("%s %dx%d mb (%d,%d) r=%d: got %+v, raster search %+v",
								pair.kind, sz[0], sz[1], mbx, mby, r, got, want)
						}
					}
				}
			}
		}
	}
	return ""
}

// TestMotionSearchMatchesRasterSearch is the exactness property:
// MotionSearch returns the raster full search's vector, SAD and Ops for
// every input of the harness.
func TestMotionSearchMatchesRasterSearch(t *testing.T) {
	if msg := searchParityMismatch(MotionSearch, searchParityRanges); msg != "" {
		t.Fatal(msg)
	}
}

// TestSearchParityHarnessCatchesFaults is the negative control: the same
// harness must pass the fault-free elimination search and fail both of
// its faulty variants, so a pass above cannot be vacuous. (Radii up to the
// codec default: the pixel-by-pixel block sums are slow and the faults
// show at any radius.)
func TestSearchParityHarnessCatchesFaults(t *testing.T) {
	controlRanges := []int{0, 1, 7}
	if msg := searchParityMismatch(eliminationSearch(0, false), controlRanges); msg != "" {
		t.Fatalf("fault-free elimination search rejected: %s", msg)
	}
	if msg := searchParityMismatch(eliminationSearch(1, false), controlRanges); msg == "" {
		t.Error("harness passed a search whose bound rejects one too early")
	} else {
		t.Logf("eager bound caught: %s", msg)
	}
	if msg := searchParityMismatch(eliminationSearch(0, true), controlRanges); msg == "" {
		t.Error("harness passed a search that scans in reverse order")
	} else {
		t.Logf("reversed scan caught: %s", msg)
	}
}

// TestSADMatchesRasterSAD pins the exported SAD, partial sums included,
// to the scalar loops it replaced, inside the frame and across every edge.
func TestSADMatchesRasterSAD(t *testing.T) {
	cur, ref := randomFrame(48, 32, 11), randomFrame(48, 32, 12)
	var mb MBPixels
	cur.GetMB(1, 1, &mb)
	for _, earlyOut := range []int{0, 500, 5000, 1 << 30} {
		for dy := -40; dy <= 40; dy += 3 {
			for dx := -60; dx <= 60; dx++ {
				mv := MV{int16(dx), int16(dy)}
				if got, want := SAD(&mb, ref, 16, 16, mv, earlyOut), sadRaster(&mb, ref, 16, 16, mv, earlyOut); got != want {
					t.Fatalf("SAD mv=%+v earlyOut=%d = %d, raster %d", mv, earlyOut, got, want)
				}
			}
		}
	}
	// The lane bound: the largest possible sum, 256·255, must not wrap.
	var white MBPixels
	for i := range white {
		white[i] = 255
	}
	if got := SAD(&white, NewFrame(16, 16), 0, 0, MV{}, 1<<30); got != 256*255 {
		t.Fatalf("SAD(white, black) = %d, want %d", got, 256*255)
	}
}

// FuzzMotionSearchParity derives a frame pair, a macroblock position and a
// radius from the fuzz bytes and checks MotionSearch against the raster
// reference. The mode byte coarsens the pixels so the fuzzer reaches the
// tie-heavy inputs random bytes would not.
func FuzzMotionSearchParity(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(5), uint8(0), []byte("eclipse motion search"))
	f.Add(uint8(63), uint8(1), uint8(0), uint8(1), []byte{0, 1, 1, 0, 1, 0, 0, 0, 1})
	f.Add(uint8(15), uint8(3), uint8(11), uint8(2), []byte{0x10, 0x80, 0xff, 0x7f, 0x33, 0xc1, 0x05})
	f.Add(uint8(1), uint8(2), uint8(2), uint8(3), []byte{100})
	f.Fuzz(func(t *testing.T, r, size, pos, mode uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		w, h := MBSize*(1+int(size&3)), MBSize*(1+int(size>>2&3))
		pix := func(i int) byte {
			p := data[i%len(data)] + byte(i/len(data))*31
			switch mode & 3 {
			case 1: // two-valued
				p &= 1
			case 2: // four-valued
				p &= 0xC0
			case 3: // flat with +1 speckle
				p = 100 + p&1&(p>>3)&(p>>5)
			}
			return p
		}
		cur, ref := NewFrame(w, h), NewFrame(w, h)
		for i := range ref.Pix {
			ref.Pix[i], cur.Pix[i] = pix(i), pix(i+w*h+int(pos))
		}
		mbx, mby := int(pos)%cur.MBCols(), int(pos)/cur.MBCols()%cur.MBRows()
		var mb MBPixels
		cur.GetMB(mbx, mby, &mb)
		x, y, rr := mbx*MBSize, mby*MBSize, int(r)%(maxSearchRange+1)
		want := motionSearchRaster(&mb, ref, x, y, rr)
		if got := MotionSearch(&mb, ref, x, y, rr); got != want {
			t.Fatalf("%dx%d mb (%d,%d) r=%d: got %+v, raster search %+v", w, h, mbx, mby, rr, got, want)
		}
	})
}

// TestMotionKernelsDoNotAllocate pins the search's scratch to the stack:
// the column sums and, for border macroblocks, the clamped window copy.
func TestMotionKernelsDoNotAllocate(t *testing.T) {
	cur, ref, bwd := randomFrame(176, 144, 13), randomFrame(176, 144, 14), randomFrame(176, 144, 15)
	var mb MBPixels
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
		cur.GetMB(c.mbx, c.mby, &mb)
		if n := testing.AllocsPerRun(10, func() {
			benchSink += MotionSearch(&mb, ref, c.mbx*MBSize, c.mby*MBSize, c.r).SAD
		}); n != 0 {
			t.Errorf("MotionSearch %s: %v allocs/op, want 0", c.name, n)
		}
	}
	cur.GetMB(0, 8, &mb)
	if n := testing.AllocsPerRun(10, func() {
		_, ops := DecideMB(&mb, FrameB, 0, 8*MBSize, ref, bwd, 7, true)
		benchSink += ops
	}); n != 0 {
		t.Errorf("DecideMB B macroblock with half-pel: %v allocs/op, want 0", n)
	}
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
	FetchMB(&want, fwd, 18, 17)
	if p != want {
		t.Fatal("fwd prediction mismatch")
	}

	Predict(&p, PredBwd, fwd, bwd, 16, 16, MV{}, MV{-1, 3})
	FetchMB(&want, bwd, 15, 19)
	if p != want {
		t.Fatal("bwd prediction mismatch")
	}

	Predict(&p, PredSkip, fwd, bwd, 32, 32, MV{5, 5}, MV{})
	FetchMB(&want, fwd, 32, 32) // skip ignores vectors
	if p != want {
		t.Fatal("skip prediction mismatch")
	}

	Predict(&p, PredBi, fwd, bwd, 16, 16, MV{1, 0}, MV{0, 1})
	var a, b MBPixels
	FetchMB(&a, fwd, 17, 16)
	FetchMB(&b, bwd, 16, 17)
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
