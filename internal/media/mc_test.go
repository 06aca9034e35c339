package media

import (
	"fmt"
	"math/rand"
	"testing"
)

// mcKernels is one model of the MC kernels: the shipped ones, their Go
// bodies, or a faulty variant for the negative control.
type mcKernels struct {
	reconstruct func(dst []byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block)
	residual    func(cur, pred *MBPixels, blocks *[BlocksPerMB]Block)
	average     func(dst, a, b *MBPixels)
}

var (
	shippedMC = mcKernels{reconstruct, residual, average}
	goMC      = mcKernels{reconstructGo, residualGo, averageGo}
)

// mcCase is one input of the MC kernels: a prediction p, a second
// macroblock q (the current block of Residual, the other reference of the
// average) and a residual.
type mcCase struct {
	name   string
	p, q   MBPixels
	blocks [BlocksPerMB]Block
}

// resAt returns the residual sample that Reconstruct adds to pixel i.
func resAt(blocks *[BlocksPerMB]Block, i int) *int16 {
	x, y := i%MBSize, i/MBSize
	return &blocks[y/8*2+x/8][y%8*8+x%8]
}

// mcCases returns the parity inputs: every pairing of the pixel values 0,
// 1, 254 and 255 with each other and with the residuals −32768, −256,
// −255, −1, 0, 1, 255, 256 and 32767, in 36 rotations so that each pair
// meets many lane positions; random blocks, over the whole int16 range and over the
// residual range; and the Fig. 10 clip's own macroblocks, each decoded
// frame as prediction against the one before it, with the clip's coded
// residuals in turn.
func mcCases(tb testing.TB) []mcCase {
	tb.Helper()
	pixVals := []byte{0, 1, 254, 255}
	resVals := []int16{-32768, -256, -255, -1, 0, 1, 255, 256, 32767}
	var cases []mcCase
	for k := 0; k < 36; k++ {
		c := mcCase{name: fmt.Sprintf("extremes/%d", k)}
		for i := range c.p {
			c.p[i] = pixVals[(i+k)%4]
			c.q[i] = pixVals[(i/4+k)%4]
			*resAt(&c.blocks, i) = resVals[(i+k)%9]
		}
		cases = append(cases, c)
	}
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 400; trial++ {
		c := mcCase{name: fmt.Sprintf("random/%d", trial)}
		for i := range c.p {
			c.p[i], c.q[i] = byte(rng.Intn(256)), byte(rng.Intn(256))
			r := int16(rng.Uint32())
			if trial%2 == 1 {
				r = int16(rng.Intn(511) - 255)
			}
			*resAt(&c.blocks, i) = r
		}
		cases = append(cases, c)
	}
	res, err := Decode(goldenStream(tb))
	if err != nil {
		tb.Fatal(err)
	}
	coded := loadCodedClip(tb).coefBlocks(tb)
	frames := res.DisplayFrames()
	n := 0
	for f := 1; f < len(frames); f++ {
		for mby := 0; mby < frames[f].MBRows(); mby++ {
			for mbx := 0; mbx < frames[f].MBCols(); mbx++ {
				c := mcCase{name: fmt.Sprintf("fig10/frame %d mb (%d,%d)", f, mbx, mby)}
				frames[f].GetMB(mbx, mby, &c.p)
				frames[f-1].GetMB(mbx, mby, &c.q)
				for b := range c.blocks {
					IDCT(&coded[n%len(coded)], &c.blocks[b])
					n++
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// garbageMB prefills a kernel's destination, so that a byte it fails to
// write shows.
var garbageMB = func() (g MBPixels) {
	for i := range g {
		g[i] = byte(i*151 + 7)
	}
	return g
}()

// mcCaseMismatch runs k on c against the Go bodies — reconstruct of p,
// residual of q against p, average of p and q into a fresh destination
// and in place — and describes the first disagreement, or returns "".
func mcCaseMismatch(k mcKernels, c *mcCase) string {
	for _, stride := range []int{MBSize, 37} {
		var got, want [3 + 15*37 + MBSize + 3]byte
		for i := range got {
			got[i] = garbageMB[i%len(garbageMB)]
		}
		want = got
		k.reconstruct(got[3:], stride, &c.p, &c.blocks)
		reconstructGo(want[3:], stride, &c.p, &c.blocks)
		if got != want {
			return fmt.Sprintf("%s: reconstruct at stride %d %v, Go body %v", c.name, stride, got, want)
		}
	}
	var gotRes, wantRes [BlocksPerMB]Block
	for i := range garbageMB {
		*resAt(&gotRes, i) = int16(garbageMB[i]) - 300
	}
	k.residual(&c.q, &c.p, &gotRes)
	residualGo(&c.q, &c.p, &wantRes)
	if gotRes != wantRes {
		return fmt.Sprintf("%s: residual %v, Go body %v", c.name, gotRes, wantRes)
	}
	got, want := garbageMB, garbageMB
	k.average(&got, &c.p, &c.q)
	averageGo(&want, &c.p, &c.q)
	inPlace := c.p
	k.average(&inPlace, &inPlace, &c.q)
	switch {
	case got != want:
		return fmt.Sprintf("%s: average %v, Go body %v", c.name, got, want)
	case inPlace != want:
		return fmt.Sprintf("%s: average in place %v, Go body %v", c.name, inPlace, want)
	}
	return ""
}

func mcMismatch(k mcKernels, cases []mcCase) string {
	for i := range cases {
		if msg := mcCaseMismatch(k, &cases[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// fetchAt is the per-pixel oracle of fetch: Frame.At at every sample.
func fetchAt(dst *MBPixels, ref *Frame, x, y int) {
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			dst[j*MBSize+i] = ref.At(x+i, y+j)
		}
	}
}

// fetchMismatch runs fetchFn at every (x, y) in [−20, W+4] × [−20, H+4]
// of a random 48×32 and a random QCIF frame — inside, across every edge
// and corner, and wholly outside — against fetchAt, and describes the
// first disagreement, or returns "".
func fetchMismatch(fetchFn func(dst *MBPixels, ref *Frame, x, y int)) string {
	for _, ref := range []*Frame{randomFrame(48, 32, 38), randomFrame(176, 144, 39)} {
		for y := -20; y <= ref.H+4; y++ {
			for x := -20; x <= ref.W+4; x++ {
				got, want := garbageMB, garbageMB
				fetchFn(&got, ref, x, y)
				fetchAt(&want, ref, x, y)
				if got != want {
					return fmt.Sprintf("%dx%d frame at (%d,%d): fetched %v, At %v", ref.W, ref.H, x, y, got, want)
				}
			}
		}
	}
	return ""
}

// TestMCKernelsMatchGo holds reconstruct, residual and the bi-predictive
// average to their Go bodies on mcCases. Reconstruct's extremes include
// 255 + 32767, where a wrapping add would pack to 0.
func TestMCKernelsMatchGo(t *testing.T) {
	if msg := mcMismatch(shippedMC, mcCases(t)); msg != "" {
		t.Fatal(msg)
	}
}

// TestClampedFetchMatchesAt holds fetch, whose border path copies whole
// clamped rows, to the per-pixel Frame.At oracle.
func TestClampedFetchMatchesAt(t *testing.T) {
	if msg := fetchMismatch(fetch); msg != "" {
		t.Fatal(msg)
	}
}

// TestMCParityCatchesFaults is the negative control: both harnesses pass
// the Go bodies and the oracle, and reject a reconstruct whose add wraps
// (PADDW for PADDSW), an average that truncates ((a+b)>>1) and a fetch
// that clamps only y, so a pass above cannot be vacuous.
func TestMCParityCatchesFaults(t *testing.T) {
	cases := mcCases(t)
	if msg := mcMismatch(goMC, cases); msg != "" {
		t.Fatalf("Go bodies rejected: %s", msg)
	}
	if msg := fetchMismatch(fetchAt); msg != "" {
		t.Fatalf("At oracle rejected: %s", msg)
	}
	wrapping := goMC
	wrapping.reconstruct = func(dst []byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block) {
		for i := range pred {
			dst[i/MBSize*stride+i%MBSize] = clampByte(int(int16(int(pred[i]) + int(*resAt(blocks, i)))))
		}
	}
	truncating := goMC
	truncating.average = func(dst, a, b *MBPixels) {
		for i := range dst {
			dst[i] = byte((int(a[i]) + int(b[i])) >> 1)
		}
	}
	for _, fault := range []struct {
		name string
		k    mcKernels
	}{{"wrapping reconstruct", wrapping}, {"truncating average", truncating}} {
		if msg := mcMismatch(fault.k, cases); msg == "" {
			t.Errorf("harness passed a %s", fault.name)
		} else {
			t.Logf("%s caught: %.200s", fault.name, msg)
		}
	}
	yOnly := func(dst *MBPixels, ref *Frame, x, y int) {
		for j := 0; j < MBSize; j++ {
			row := min(max(y+j, 0), ref.H-1) * ref.W
			for i := 0; i < MBSize; i++ {
				dst[j*MBSize+i] = ref.Pix[min(max(row+x+i, 0), len(ref.Pix)-1)]
			}
		}
	}
	if msg := fetchMismatch(yOnly); msg == "" {
		t.Error("harness passed a fetch that clamps only y")
	} else {
		t.Logf("y-only clamp caught: %.200s", msg)
	}
}

// FuzzMCKernelParity derives p, q and the residual from the fuzz bytes
// and holds the MC kernels to their Go bodies, and builds a 48×32 frame
// from them and holds fetch at (x, y) to the Frame.At oracle.
func FuzzMCKernelParity(f *testing.F) {
	f.Add(int8(-3), int8(5), []byte("eclipse mc kernel"))
	f.Add(int8(0), int8(0), []byte{255, 0x7f, 0xff})
	f.Add(int8(-20), int8(40), []byte{0, 0x80, 0x00, 1})
	f.Add(int8(50), int8(-17), []byte{0x10, 0x80, 0xff, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, x, y int8, data []byte) {
		if len(data) == 0 {
			return
		}
		pix := func(i int) byte { return data[i%len(data)] + byte(i/len(data))*31 }
		c := mcCase{name: "fuzz"}
		for i := range c.p {
			c.p[i], c.q[i] = pix(i), pix(i+len(c.p))
			*resAt(&c.blocks, i) = int16(pix(2*i+512)) | int16(pix(2*i+513))<<8
		}
		if msg := mcCaseMismatch(shippedMC, &c); msg != "" {
			t.Fatal(msg)
		}
		ref := NewFrame(48, 32)
		for i := range ref.Pix {
			ref.Pix[i] = pix(i)
		}
		var got, want MBPixels
		fetch(&got, ref, int(x), int(y))
		fetchAt(&want, ref, int(x), int(y))
		if got != want {
			t.Fatalf("fetch at (%d,%d): %v, At %v", x, y, got, want)
		}
	})
}
