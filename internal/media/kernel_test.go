package media

// Kernel contracts. Every kernel in this package keeps two bodies, the one
// that runs and a reference model, as a migrated task keeps its software
// form. Each pair is one contract, stated once by the driver: the shipped
// kernel agrees with the reference on every input (holds), the oracle
// model agrees too, and every faulty model disagrees somewhere
// (checkFaults), so a pass is not vacuous. The Test and Fuzz functions
// are thin wrappers over the rows; DESIGN.md §6 "Kernel contracts" lists
// them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// kernelFunc is the type set of the contracts' kernels.
type kernelFunc interface {
	sadKernel | sad8Kernel | sadFrameKernel | activityKernel | searchFunc |
		fetchKernel | predFunc | padModel | mcKernels | transforms | dctKernel | rlsqKernel | quantKernel |
		dequantKernel | vleKernel | vldKernel | mbParseKernel
}

// contract is one kernel/reference pair over n inputs: mismatch runs model
// k on input i against the reference and describes a disagreement, or
// returns "".
type contract[K kernelFunc] struct {
	n        int
	mismatch func(k K, i int) string
	kernel   K
	oracle   K
	faults   []fault[K]
}

// fault is a faulty model of a kernel, which the contract must catch.
type fault[K kernelFunc] struct {
	name  string
	model K
}

func (c *contract[K]) firstMismatch(k K) string {
	for i := 0; i < c.n; i++ {
		if msg := c.mismatch(k, i); msg != "" {
			return fmt.Sprintf("input %d of %d: %s", i, c.n, msg)
		}
	}
	return ""
}

// holds fails t unless the shipped kernel agrees with the reference on
// every input.
func (c *contract[K]) holds(t *testing.T) {
	t.Helper()
	if msg := c.firstMismatch(c.kernel); msg != "" {
		t.Fatal(msg)
	}
}

// checkFaults is the negative control: the oracle passes the same check
// and every faulty model fails it.
func (c *contract[K]) checkFaults(t *testing.T) {
	t.Helper()
	if msg := c.firstMismatch(c.oracle); msg != "" {
		t.Fatalf("oracle rejected: %s", msg)
	}
	for _, f := range c.faults {
		if msg := c.firstMismatch(f.model); msg == "" {
			t.Errorf("contract passed %s", f.name)
		} else {
			t.Logf("%s caught: %.200s", f.name, msg)
		}
	}
}

// verify runs both halves of the contract.
func (c *contract[K]) verify(t *testing.T) {
	t.Helper()
	c.holds(t)
	c.checkFaults(t)
}

// allocCase is one call that must not allocate.
type allocCase struct {
	name string
	f    func()
}

// checkZeroAllocs fails t for each case that allocates. An operand
// declared inside a case's function that escaped would be allocated on
// every call.
func checkZeroAllocs(t *testing.T, cases []allocCase) {
	t.Helper()
	for _, c := range cases {
		if n := testing.AllocsPerRun(10, c.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// garbageMB and garbageBlock prefill a kernel's destination, so that a
// value it fails to write, or writes when it must not, shows.
var garbageMB = func() (g MBPixels) {
	for i := range g {
		g[i] = byte(i*151 + 7)
	}
	return g
}()

var garbageBlock = func() (g Block) {
	for i := range g {
		g[i] = int16(i*7919 - 12345)
	}
	return g
}()

// fuzzFill fills dst with pixels j = from, from+1, … derived from the
// fuzz bytes: data[j mod len(data)] plus 31 for every wrap, so that short
// inputs still make varied blocks. data must not be empty.
func fuzzFill(dst, data []byte, from int) {
	for i := range dst {
		j := from + i
		dst[i] = data[j%len(data)] + byte(j/len(data))*31
	}
}

// codedClip is the Fig. 10 clip (QCIF, 12 frames, N=12 M=3): the
// run/level events of every coded block in stream order, the quantizer,
// the dequantized blocks the decoder feeds the IDCT, and the decoded
// frames in display order.
type codedClip struct {
	q      int
	events [][]RunLevel
	coef   []Block
	frames []*Frame
}

// fig10 holds the clip once loadCodedClip has parsed it, once per test
// binary.
var fig10 struct {
	sync.Mutex
	clip *codedClip
}

func loadCodedClip(tb testing.TB) *codedClip {
	tb.Helper()
	fig10.Lock()
	defer fig10.Unlock()
	if fig10.clip != nil {
		return fig10.clip
	}
	stream := goldenStream(tb)
	clip := &codedClip{}
	vld := NewStreamVLD()
	vld.Extend(stream)
	for end := false; !end; {
		ev, err := vld.Next()
		if err != nil {
			tb.Fatalf("at %s: %v", vld.Progress(), err)
		}
		switch ev.Kind {
		case EventSeq:
			clip.q = ev.Seq.Q
		case EventMB:
			for b := 0; b < BlocksPerMB; b++ {
				if ev.Tok.CBP&(1<<b) == 0 {
					continue
				}
				evs := slices.Clone(ev.Tok.Events[b])
				var coef Block
				if err := RLSQTokensToCoef(evs, clip.q, &coef); err != nil {
					tb.Fatalf("coded block %d: %v", len(clip.events), err)
				}
				clip.events, clip.coef = append(clip.events, evs), append(clip.coef, coef)
			}
		case EventEnd:
			end = true
		}
	}
	if len(clip.coef) == 0 {
		tb.Fatal("clip has no coded blocks")
	}
	res, err := Decode(stream)
	if err != nil {
		tb.Fatal(err)
	}
	clip.frames = res.DisplayFrames()
	fig10.clip = clip
	return clip
}

// pixelPair is one block pair of the SAD contracts: cur against a
// reference buffer whose rows are stride apart.
type pixelPair struct {
	name   string
	stride int
	cur    MBPixels
	buf    []byte
}

// pixelPairs returns four patterns at each stride, drawn from one rng:
// white against black both ways, random, and near-flat ("close"). Each
// buffer holds a block at ref offset 3 plus extra columns.
func pixelPairs(seed int64, strides []int, extra int) []pixelPair {
	rng := rand.New(rand.NewSource(seed))
	patterns := []struct {
		name     string
		cur, ref func() byte
	}{
		{"white-black", func() byte { return 255 }, func() byte { return 0 }},
		{"black-white", func() byte { return 0 }, func() byte { return 255 }},
		{"random", func() byte { return byte(rng.Intn(256)) }, func() byte { return byte(rng.Intn(256)) }},
		{"close", func() byte { return 100 + byte(rng.Intn(3)) }, func() byte { return 100 + byte(rng.Intn(3)) }},
	}
	var pairs []pixelPair
	for _, stride := range strides {
		for _, pat := range patterns {
			p := pixelPair{name: pat.name, stride: stride, buf: make([]byte, 3+15*stride+MBSize+extra)}
			for i := range p.cur {
				p.cur[i] = pat.cur()
			}
			for i := range p.buf {
				p.buf[i] = pat.ref()
			}
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// sadInput is one call of a SAD kernel.
type sadInput struct {
	name             string
	cur              *MBPixels
	ref              []byte
	stride, earlyOut int
}

// sadInputs returns every pair at ref offsets 0–3, each at earlyOut −1,
// 0, 2³⁰ and every sum that exits returns for it ±1.
func sadInputs(pairs []pixelPair, exits func(cur *MBPixels, ref []byte, stride int) []int) []sadInput {
	var ins []sadInput
	for i := range pairs {
		p := &pairs[i]
		for off := 0; off <= 3; off++ {
			ref := p.buf[off:]
			earlyOuts := []int{-1, 0, 1 << 30}
			for _, s := range exits(&p.cur, ref, p.stride) {
				earlyOuts = append(earlyOuts, s-1, s, s+1)
			}
			name := fmt.Sprintf("%s stride %d offset %d", p.name, p.stride, off)
			for _, e := range earlyOuts {
				ins = append(ins, sadInput{name, &p.cur, ref, p.stride, e})
			}
		}
	}
	return ins
}

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

type sadKernel func(cur *MBPixels, ref []byte, stride, earlyOut int) int

// sadRowsScalar is the scalar row loop both bodies of sadRows reproduce;
// with eager set it is the faulty kernel that exits at a sum equal to
// earlyOut.
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

func sadMismatch(k sadKernel, in *sadInput) string {
	if got, want := k(in.cur, in.ref, in.stride, in.earlyOut), sadRowsSWAR(in.cur, in.ref, in.stride, in.earlyOut); got != want {
		return fmt.Sprintf("%s earlyOut %d: got %d, SWAR %d", in.name, in.earlyOut, got, want)
	}
	return ""
}

// sadRowsContract holds sadRows to sadRowsSWAR value for value, partial
// sums included, at strides 0, 16, 30 (the r = 7 window), 142 and 176 and
// at every row's partial sum ±1.
func sadRowsContract() *contract[sadKernel] {
	ins := sadInputs(pixelPairs(21, []int{0, 16, 30, 142, 176}, 0), func(cur *MBPixels, ref []byte, stride int) []int {
		sums := sadPartials(cur, ref, stride)
		return sums[:]
	})
	return &contract[sadKernel]{
		n:        len(ins),
		mismatch: func(k sadKernel, i int) string { return sadMismatch(k, &ins[i]) },
		kernel:   sadRows,
		oracle:   sadRowsScalar(false),
		faults:   []fault[sadKernel]{{"an exit at a sum equal to earlyOut", sadRowsScalar(true)}},
	}
}

func TestSADKernelMatchesSWAR(t *testing.T)         { sadRowsContract().holds(t) }
func TestSADKernelParityCatchesFaults(t *testing.T) { sadRowsContract().checkFaults(t) }

func FuzzSADKernelParity(f *testing.F) {
	fuzzSAD(f, "eclipse sad kernel", 0, func(in *sadInput) string { return sadMismatch(sadRows, in) })
}

// fuzzSAD runs a SAD row's check on cur, ref, a stride of 0..176 and
// earlyOut derived from the fuzz bytes.
func fuzzSAD(f *testing.F, seed string, extra int, check func(in *sadInput) string) {
	f.Add(uint8(30), 1<<30, []byte(seed))
	f.Add(uint8(16), 0, []byte{0, 255})
	f.Add(uint8(0), -1, []byte{7})
	f.Add(uint8(176), 2040, []byte{0x10, 0x80, 0xff, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, s uint8, earlyOut int, data []byte) {
		if len(data) == 0 {
			return
		}
		stride := int(s) % 177
		in := sadInput{"fuzz", new(MBPixels), make([]byte, 15*stride+MBSize+extra), stride, earlyOut}
		fuzzFill(in.cur[:], data, 0)
		fuzzFill(in.ref, data, MBSize*MBSize)
		if msg := check(&in); msg != "" {
			t.Fatal(msg)
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

// sad8Mismatch compares the stored sums and the returned minimum. Both
// models start from the same garbage in out, so a missing store shows.
func sad8Mismatch(k sad8Kernel, in *sadInput) string {
	got := [8]int32{-7, -7, -7, -7, -7, -7, -7, -7}
	want := got
	gm, wm := k(in.cur, in.ref, in.stride, in.earlyOut, &got), sad8Go(in.cur, in.ref, in.stride, in.earlyOut, &want)
	if got != want || gm != wm {
		return fmt.Sprintf("%s earlyOut %d: got %v min %d, portable %v min %d", in.name, in.earlyOut, got, gm, want, wm)
	}
	return ""
}

// sad8Contract holds sad8 to sad8Go on every exit path, at strides 16, 30
// (the r = 7 window), 46 and 176 and at the smallest of the eight partial
// sums at each exit row ±1. TestSAD8MatchesPortable holds each body of
// sad8 (sad8Bodies) to it directly, not through the dispatch.
func sad8Contract() *contract[sad8Kernel] {
	ins := sadInputs(pixelPairs(22, []int{16, 30, 46, 176}, 7), func(cur *MBPixels, ref []byte, stride int) []int {
		var partials [8][MBSize]int
		for k := range partials {
			partials[k] = sadPartials(cur, ref[k:], stride)
		}
		var exits []int
		for j := 3; j < MBSize-1; j += 4 {
			m := partials[0][j]
			for k := range partials {
				m = min(m, partials[k][j])
			}
			exits = append(exits, m)
		}
		return exits
	})
	return &contract[sad8Kernel]{
		n:        len(ins),
		mismatch: func(k sad8Kernel, i int) string { return sad8Mismatch(k, &ins[i]) },
		kernel:   sad8,
		oracle:   sad8Scalar(false),
		faults:   []fault[sad8Kernel]{{"a stop when any partial sum exceeds earlyOut", sad8Scalar(true)}},
	}
}

func TestSAD8MatchesPortable(t *testing.T) {
	c := sad8Contract()
	eachSAD8Body(t, func(t *testing.T, b sad8Body) {
		c.kernel = b.kernel
		c.holds(t)
	})
}

func TestSAD8ParityCatchesFaults(t *testing.T) { sad8Contract().checkFaults(t) }

// FuzzSAD8Parity checks every body of sad8 this host runs.
func FuzzSAD8Parity(f *testing.F) {
	fuzzSAD(f, "eclipse sad8 kernel", 7, func(in *sadInput) string {
		for _, b := range sad8Bodies {
			if b.skip != "" {
				continue
			}
			if msg := sad8Mismatch(b.kernel, in); msg != "" {
				return b.name + ": " + msg
			}
		}
		return ""
	})
}

type sadFrameKernel func(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int

// sadAt is a scalar model of SAD: the block fetched with Frame.At, then
// sadRowsScalar.
func sadAt(eager bool) sadFrameKernel {
	return func(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int {
		var blk MBPixels
		fetchAt(&blk, ref, x+int(mv.X), y+int(mv.Y))
		return sadRowsScalar(eager)(cur, blk[:], MBSize, earlyOut)
	}
}

// sadRaster and motionSearchRaster are the reference model of SAD and
// MotionSearch: every candidate read pixel by pixel, in raster order after
// the zero vector, and a candidate replaces the best only when strictly
// better.
func sadRaster(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int {
	sum := 0
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			d := int(cur[j*MBSize+i]) - int(ref.At(x+int(mv.X)+i, y+int(mv.Y)+j))
			sum += max(d, -d)
		}
		if sum > earlyOut {
			return sum
		}
	}
	return sum
}

type sadFrameInput struct {
	mv       MV
	earlyOut int
}

// sadFrameContract holds SAD, partial sums included, to sadRaster for
// macroblock (1,1) of one random 48×32 frame against another, at vectors
// inside and across every edge, at earlyOut 0, 500, 5000 and 2³⁰, and at
// every row's partial sum for every tenth column of vectors.
func sadFrameContract() *contract[sadFrameKernel] {
	cur, ref := randomFrame(48, 32, 11), randomFrame(48, 32, 12)
	var mb MBPixels
	cur.GetMB(1, 1, &mb)
	var ins []sadFrameInput
	for _, e := range []int{0, 500, 5000, 1 << 30} {
		for dy := -40; dy <= 40; dy += 3 {
			for dx := -60; dx <= 60; dx++ {
				ins = append(ins, sadFrameInput{MV{int16(dx), int16(dy)}, e})
			}
		}
	}
	for dy := -40; dy <= 40; dy += 3 {
		for dx := -60; dx <= 60; dx += 10 {
			var blk MBPixels
			fetchAt(&blk, ref, 16+dx, 16+dy)
			for _, e := range sadPartials(&mb, blk[:], MBSize) {
				ins = append(ins, sadFrameInput{MV{int16(dx), int16(dy)}, e})
			}
		}
	}
	return &contract[sadFrameKernel]{
		n: len(ins),
		mismatch: func(k sadFrameKernel, i int) string {
			in := &ins[i]
			if got, want := k(&mb, ref, 16, 16, in.mv, in.earlyOut), sadRaster(&mb, ref, 16, 16, in.mv, in.earlyOut); got != want {
				return fmt.Sprintf("SAD mv=%+v earlyOut=%d = %d, raster %d", in.mv, in.earlyOut, got, want)
			}
			return ""
		},
		kernel: SAD,
		oracle: sadAt(false),
		faults: []fault[sadFrameKernel]{{"an exit at a sum equal to earlyOut", sadAt(true)}},
	}
}

// TestSADMatchesRasterSAD also pins the lane bound: the largest possible
// sum, 256·255, must not wrap.
func TestSADMatchesRasterSAD(t *testing.T) {
	sadFrameContract().verify(t)
	white := MBPixels(bytes.Repeat([]byte{255}, MBSize*MBSize))
	if got := SAD(&white, NewFrame(16, 16), 0, 0, MV{}, 1<<30); got != 256*255 {
		t.Fatalf("SAD(white, black) = %d, want %d", got, 256*255)
	}
}

type activityKernel func(cur *MBPixels) int

// intraActivityScalar is IntraActivity as two 256-step loops: the sum,
// then the absolute deviations from its integer mean. With round set it
// is the faulty model that rounds the mean instead of truncating it.
func intraActivityScalar(round bool) activityKernel {
	return func(cur *MBPixels) int {
		sum := 0
		for _, p := range cur {
			sum += int(p)
		}
		mean := sum / len(cur)
		if round {
			mean = (sum + len(cur)/2) / len(cur)
		}
		act := 0
		for _, p := range cur {
			act += max(int(p)-mean, mean-int(p))
		}
		return act
	}
}

// intraActivityContract: 50 blocks of each kind, all 0, all 255, a 0/255
// checkerboard, random and narrow, drawn in this order from one seed.
func intraActivityContract() *contract[activityKernel] {
	rng := rand.New(rand.NewSource(23))
	kinds := []struct {
		name string
		pix  func(i int) byte
	}{
		{"zero", func(int) byte { return 0 }},
		{"white", func(int) byte { return 255 }},
		{"checker", func(i int) byte { return byte(-((i + i/MBSize) & 1)) }},
		{"random", func(int) byte { return byte(rng.Intn(256)) }},
		{"narrow", func(int) byte { return 60 + byte(rng.Intn(4)) }},
	}
	const reps = 50
	blocks := make([]MBPixels, len(kinds)*reps)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = kinds[i/reps].pix(j)
		}
	}
	return &contract[activityKernel]{
		n: len(blocks),
		mismatch: func(k activityKernel, i int) string {
			if got, want := k(&blocks[i]), intraActivityScalar(false)(&blocks[i]); got != want {
				return fmt.Sprintf("%s block %d: got %d, scalar %d", kinds[i/reps].name, i%reps, got, want)
			}
			return ""
		},
		kernel: IntraActivity,
		oracle: intraActivityScalar(false),
		faults: []fault[activityKernel]{{"a mean rounded instead of truncated", intraActivityScalar(true)}},
	}
}

func TestIntraActivityMatchesScalar(t *testing.T) { intraActivityContract().verify(t) }

type searchFunc func(cur *MBPixels, ref *Frame, x, y, r int) SearchResult

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

// gridSearch is a test-local grid search (a window gathered with
// Frame.At, sad8Go) with three faults. reverse scans a group's lanes from
// 7 down, which changes the winner among ties; skipLane7 leaves lane 7 out
// of the group minimum; slack 1 skips a group whose minimum is best−1.
// Windows narrower than a group (r < 4) take the raster loop.
func gridSearch(reverse, skipLane7 bool, slack int) searchFunc {
	return func(cur *MBPixels, ref *Frame, x, y, r int) SearchResult {
		n, w := 2*r+1, MBSize+2*r
		if n < 8 {
			return motionSearchRaster(cur, ref, x, y, r)
		}
		win := make([]byte, w*w)
		for j := 0; j < w; j++ {
			for i := 0; i < w; i++ {
				win[j*w+i] = ref.At(x-r+i, y-r+j)
			}
		}
		best := SearchResult{SAD: sadRaster(cur, ref, x, y, MV{}, 1<<30), Ops: n * n}
		var sums [8]int32
		for dy := 0; dy < n; dy++ {
			for g := 0; g < n; g += 8 {
				dx0 := min(g, n-8)
				m := sad8Go(cur, win[dy*w+dx0:], w, best.SAD, &sums)
				if skipLane7 {
					m = slices.Min(sums[:7])
				}
				if int(m) >= best.SAD-slack {
					continue
				}
				for i := range sums {
					k := i
					if reverse {
						k = len(sums) - 1 - i
					}
					if int(sums[k]) < best.SAD {
						best.SAD, best.MV = int(sums[k]), MV{int16(dx0 + k - r), int16(dy - r)}
					}
				}
			}
		}
		return best
	}
}

type searchParityPair struct {
	kind     string
	cur, ref *Frame
}

// searchParityFrames builds the (current, reference) pairs of one frame
// size: each kind stresses a different part of the search.
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
		// No structure: early-outs do the work.
		{"random", fill(func() byte { return byte(rng.Intn(256)) }), fill(func() byte { return byte(rng.Intn(256)) })},
		// Mass ties among good candidates: a reordered scan picks another
		// vector.
		{"two-valued", fill(func() byte { return 40 + 9*byte(rng.Intn(2)) }), fill(func() byte { return 40 + 9*byte(rng.Intn(2)) })},
		// Every vector ties: zero must win, at any SAD.
		{"constant", fill(func() byte { return 128 }), fill(func() byte { return 128 })},
		{"constant-diff", fill(func() byte { return 90 }), fill(func() byte { return 97 })},
		// A flat block against sparse +1 speckle: neighbours differ by 0
		// or 1, so candidates that win by exactly 1 are everywhere.
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

// searchInput is one search with the raster search's result.
type searchInput struct {
	name    string
	mb      MBPixels
	ref     *Frame
	x, y, r int
	want    SearchResult
}

func newSearchInput(name string, cur, ref *Frame, mbx, mby, r int) searchInput {
	in := searchInput{name: fmt.Sprintf("%s %dx%d mb (%d,%d)", name, cur.W, cur.H, mbx, mby),
		ref: ref, x: mbx * MBSize, y: mby * MBSize, r: r}
	cur.GetMB(mbx, mby, &in.mb)
	in.want = motionSearchRaster(&in.mb, ref, in.x, in.y, r)
	return in
}

func searchMismatch(k searchFunc, in *searchInput) string {
	if got := k(&in.mb, in.ref, in.x, in.y, in.r); got != in.want {
		return fmt.Sprintf("%s r=%d: got %+v, raster search %+v", in.name, in.r, got, in.want)
	}
	return ""
}

// searchContract holds MotionSearch's vector, SAD and Ops to the raster
// search over frame kind × size × radius × macroblock: frames smaller
// than the window and non-square, every border and corner, and radii up
// to the largest CodecConfig accepts; above 15 only the corners and the
// centre, where the reference takes milliseconds. It is built once.
var searchContract = sync.OnceValue(func() *contract[searchFunc] {
	var ins []searchInput
	for si, sz := range [][2]int{{16, 16}, {32, 16}, {48, 80}, {80, 48}} {
		for _, pair := range searchParityFrames(sz[0], sz[1], int64(100+si)) {
			cur := pair.cur
			for _, r := range []int{0, 1, 7, 15, 31, maxSearchRange} {
				for mby := 0; mby < cur.MBRows(); mby++ {
					for mbx := 0; mbx < cur.MBCols(); mbx++ {
						corner := (mbx == 0 || mbx == cur.MBCols()-1) && (mby == 0 || mby == cur.MBRows()-1)
						if r > 15 && !corner && (mbx != cur.MBCols()/2 || mby != cur.MBRows()/2) {
							continue
						}
						ins = append(ins, newSearchInput(pair.kind, cur, pair.ref, mbx, mby, r))
					}
				}
			}
		}
	}
	return &contract[searchFunc]{
		n:        len(ins),
		mismatch: func(k searchFunc, i int) string { return searchMismatch(k, &ins[i]) },
		kernel:   MotionSearch,
		oracle:   gridSearch(false, false, 0),
		faults: []fault[searchFunc]{
			{"a group scanned in reverse", gridSearch(true, false, 0)},
			{"a group minimum without lane 7", gridSearch(false, true, 0)},
			{"a group bound one too early", gridSearch(false, false, 1)},
		},
	}
})

func TestMotionSearchMatchesRasterSearch(t *testing.T) {
	eachSAD8Body(t, func(t *testing.T, _ sad8Body) { searchContract().holds(t) })
}

func TestSearchParityHarnessCatchesFaults(t *testing.T) { searchContract().checkFaults(t) }

// FuzzMotionSearchParity derives frames, a macroblock and a radius from
// the fuzz bytes; the mode byte coarsens the pixels to reach ties. The
// search runs on the reference frame and again on its padded plane, the
// encoder's, at the shifted position; both must give the raster result.
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
		cur, ref := NewFrame(w, h), NewFrame(w, h)
		fuzzFill(ref.Pix, data, 0)
		fuzzFill(cur.Pix, data, w*h+int(pos))
		for _, fr := range []*Frame{cur, ref} {
			for i, p := range fr.Pix {
				switch mode & 3 {
				case 1: // two-valued
					fr.Pix[i] = p & 1
				case 2: // four-valued
					fr.Pix[i] = p & 0xC0
				case 3: // flat with +1 speckle
					fr.Pix[i] = 100 + p&1&(p>>3)&(p>>5)
				}
			}
		}
		mbx, mby := int(pos)%cur.MBCols(), int(pos)/cur.MBCols()%cur.MBRows()
		in := newSearchInput("fuzz", cur, ref, mbx, mby, int(r)%(maxSearchRange+1))
		if msg := searchMismatch(MotionSearch, &in); msg != "" {
			t.Fatal(msg)
		}
		p := refPad(in.r)
		if got := MotionSearch(&in.mb, shippedPad.plane(ref, p), in.x+p, in.y+p, in.r); got != in.want {
			t.Fatalf("%s r=%d on the reference plane: got %+v, raster search %+v", in.name, in.r, got, in.want)
		}
	})
}

type fetchKernel func(dst *MBPixels, ref *Frame, x, y int)

// fetchAt is the per-pixel oracle of fetch: Frame.At at every sample.
func fetchAt(dst *MBPixels, ref *Frame, x, y int) {
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			dst[j*MBSize+i] = ref.At(x+i, y+j)
		}
	}
}

type fetchInput struct {
	ref  *Frame
	x, y int
}

func fetchMismatch(k fetchKernel, in *fetchInput) string {
	got, want := garbageMB, garbageMB
	k(&got, in.ref, in.x, in.y)
	fetchAt(&want, in.ref, in.x, in.y)
	if got != want {
		return fmt.Sprintf("%dx%d frame at (%d,%d): fetched %v, At %v", in.ref.W, in.ref.H, in.x, in.y, got, want)
	}
	return ""
}

// fetchContract runs every (x, y) in [−20, W+4] × [−20, H+4] of a random
// 48×32 and a random QCIF frame: inside, across every edge and corner,
// and wholly outside.
func fetchContract() *contract[fetchKernel] {
	var ins []fetchInput
	for _, ref := range []*Frame{randomFrame(48, 32, 38), randomFrame(176, 144, 39)} {
		for y := -20; y <= ref.H+4; y++ {
			for x := -20; x <= ref.W+4; x++ {
				ins = append(ins, fetchInput{ref, x, y})
			}
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
	return &contract[fetchKernel]{
		n:        len(ins),
		mismatch: func(k fetchKernel, i int) string { return fetchMismatch(k, &ins[i]) },
		kernel:   fetch,
		oracle:   fetchAt,
		faults:   []fault[fetchKernel]{{"a fetch that clamps only y", yOnly}},
	}
}

func TestClampedFetchMatchesAt(t *testing.T) { fetchContract().holds(t) }

type predFunc func(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool)

// predictCopy is the copy path predView replaced, its oracle: each
// reference block copied sample by sample, by fetchAt at a full-pel
// position and fetchHalf at a half-pel one, and the two of a
// bi-directional block averaged per sample.
func predictCopy(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool) {
	grab := func(dst *MBPixels, ref *Frame, mv MV) {
		switch hx, hy := 2*x+int(mv.X), 2*y+int(mv.Y); {
		case !halfPel:
			fetchAt(dst, ref, x+int(mv.X), y+int(mv.Y))
		case (hx|hy)&1 == 0:
			fetchAt(dst, ref, hx>>1, hy>>1)
		default:
			fetchHalf(dst, ref, hx, hy)
		}
	}
	var b MBPixels
	switch mode {
	case PredIntra:
		*pred = midGray
	case PredFwd:
		grab(pred, fwd, fmv)
	case PredSkip:
		fetchAt(pred, fwd, x, y)
	case PredBwd:
		grab(pred, bwd, bmv)
	case PredBi:
		grab(pred, fwd, fmv)
		grab(&b, bwd, bmv)
		for i := range pred {
			pred[i] = byte((int(pred[i]) + int(b[i]) + 1) >> 1)
		}
	}
}

type predInput struct {
	fwd, bwd *Frame
	mode     PredMode
	x, y     int
	fmv, bmv MV
	halfPel  bool
}

// predMismatch runs k into a garbage-filled block, which predView also
// takes as its scratch, so a view it fails to fill shows.
func predMismatch(k predFunc, in *predInput) string {
	got, want := garbageMB, garbageMB
	k(&got, in.mode, in.fwd, in.bwd, in.x, in.y, in.fmv, in.bmv, in.halfPel)
	predictCopy(&want, in.mode, in.fwd, in.bwd, in.x, in.y, in.fmv, in.bmv, in.halfPel)
	if got != want {
		return fmt.Sprintf("%v at (%d,%d) fmv %v bmv %v half-pel %v: %v, copy path %v",
			in.mode, in.x, in.y, in.fmv, in.bmv, in.halfPel, got, want)
	}
	return ""
}

// predContract holds PredictHP, predView and then the copy of its view,
// to the copy path for every mode, with half-pel off and on, at three
// macroblocks of a random 48×32 frame pair. Each vector points at one
// of 49 positions: inside, one pixel past each edge, and wholly outside
// in x and y (and, with half-pel on, at a full-, horizontal-, vertical-
// or diagonal half-pel offset from it).
func predContract() *contract[predFunc] {
	fwd, bwd := randomFrame(48, 32, 40), randomFrame(48, 32, 41)
	xs := []int{-20, -1, 0, 5, fwd.W - 16, fwd.W - 15, fwd.W + 4}
	ys := []int{-20, -1, 0, 5, fwd.H - 16, fwd.H - 15, fwd.H + 4}
	var ins []predInput
	for _, mb := range [][2]int{{0, 0}, {16, 16}, {32, 16}} {
		for t := 0; t < len(xs)*len(ys); t++ {
			for _, halfPel := range []bool{false, true} {
				vec := func(t int) MV {
					rx, ry := xs[t%len(xs)], ys[t/len(xs)]
					if !halfPel {
						return MV{int16(rx - mb[0]), int16(ry - mb[1])}
					}
					return MV{int16(2*(rx-mb[0]) + t&1), int16(2*(ry-mb[1]) + t>>1&1)}
				}
				for mode := PredIntra; mode <= PredSkip; mode++ {
					ins = append(ins, predInput{fwd, bwd, mode, mb[0], mb[1], vec(t), vec((t + 17) % 49), halfPel})
				}
			}
		}
	}
	followsVector := func(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool) {
		if mode == PredSkip {
			mode = PredFwd
		}
		PredictHP(pred, mode, fwd, bwd, x, y, fmv, bmv, halfPel)
	}
	pastRightEdge := func(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool) {
		PredictHP(pred, mode, fwd, bwd, x, y, fmv, bmv, halfPel)
		rx, ry := x+int(fmv.X), y+int(fmv.Y)
		if mode == PredFwd && !halfPel && rx+MBSize == fwd.W+1 && ry >= 0 && ry+MBSize < fwd.H {
			copyView(pred, fwd.Pix[ry*fwd.W+rx:], fwd.W)
		}
	}
	return &contract[predFunc]{
		n:        len(ins),
		mismatch: func(k predFunc, i int) string { return predMismatch(k, &ins[i]) },
		kernel:   PredictHP,
		oracle:   predictCopy,
		faults: []fault[predFunc]{
			{"a skip that follows the forward vector", followsVector},
			{"a view read in place one pixel past the right edge", pastRightEdge},
		},
	}
}

func TestPredViewMatchesCopyPath(t *testing.T) { predContract().holds(t) }

// padModel is one model of the encoder's reference planes: the border p
// for a search radius, and the fill of a plane's p-pixel border from the
// picture inside it.
type padModel struct {
	pad    func(r int) int
	extend func(f *Frame, p int)
}

// shippedPad is the encoder's model.
var shippedPad = padModel{refPad, extendEdges}

// plane returns pic at (p, p) in a zeroed (W+2p)×(H+2p) frame, its border
// filled by m.
func (m padModel) plane(pic *Frame, p int) *Frame {
	f := NewFrame(pic.W+2*p, pic.H+2*p)
	for y := 0; y < pic.H; y++ {
		copy(f.Pix[(y+p)*f.W+p:], pic.Pix[y*pic.W:(y+1)*pic.W])
	}
	m.extend(f, p)
	return f
}

// padAt is the oracle: the least multiple of MBSize not below r, and
// every border pixel read through Frame.At of the picture inside.
var padAt = padModel{
	pad: func(r int) int {
		p := 0
		for p < r {
			p += MBSize
		}
		return p
	},
	extend: func(f *Frame, p int) {
		pic := NewFrame(f.W-2*p, f.H-2*p)
		for y := 0; y < pic.H; y++ {
			copy(pic.Pix[y*pic.W:(y+1)*pic.W], f.Pix[(y+p)*f.W+p:])
		}
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				f.Pix[y*f.W+x] = pic.At(x-p, y-p)
			}
		}
	},
}

// extendModel is extendEdges written out again with two faults: corners
// leaves the border's four corner squares unfilled, swap fills the left
// border from the right edge and the right border from the left.
func extendModel(corners, swap bool) func(f *Frame, p int) {
	return func(f *Frame, p int) {
		w, h := f.W, f.H
		for y := p; y < h-p; y++ {
			l, r := f.Pix[y*w+p], f.Pix[y*w+w-p-1]
			if swap {
				l, r = r, l
			}
			for i := 0; i < p; i++ {
				f.Pix[y*w+i], f.Pix[y*w+w-1-i] = l, r
			}
		}
		lo, hi := 0, w
		if corners {
			lo, hi = p, w-p
		}
		for y := 0; y < p; y++ {
			copy(f.Pix[y*w+lo:y*w+hi], f.Pix[p*w+lo:])
			copy(f.Pix[(h-1-y)*w+lo:(h-1-y)*w+hi], f.Pix[(h-p-1)*w+lo:])
		}
	}
}

// padInput is a picture and its border (an extend input), or, with cur
// set, the search of one macroblock of cur in the picture at radius r
// with half-pel refinement on or off, and the plain frame's results.
type padInput struct {
	pic          *Frame
	p            int
	cur          *Frame
	mbx, mby, r  int
	halfPel      bool
	want, wantHP SearchResult // MotionSearch's and RefineHalfPel's
	plain        []MBPixels   // padPredict's
}

// refined is RefineHalfPel from a search's result.
func refined(cur *MBPixels, ref *Frame, x, y int, res SearchResult) SearchResult {
	mv, sad, ops := RefineHalfPel(cur, ref, x, y, res.MV, res.SAD)
	return SearchResult{mv, sad, ops}
}

// padVectors are the prediction vectors of a search input: the search's
// own, and each combination of a block wholly left of or right of the
// plane, at the macroblock, and wholly above or below it — past any pad
// of at most 64 — in half-pel units with both half offsets when halfPel.
func padVectors(in *padInput, mv MV) []MV {
	x, y := in.mbx*MBSize, in.mby*MBSize
	xs := []int{-x - 100, 0, in.pic.W - x + 70}
	ys := []int{-y - 100, 0, in.pic.H - y + 70}
	vs := []MV{mv}
	for _, dy := range ys {
		for _, dx := range xs {
			v := MV{int16(dx), int16(dy)}
			if in.halfPel {
				v = MV{int16(2*dx + 1), int16(2*dy + 1)}
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// padPredict runs PredictHP — predView and then a copy of its view — on
// ref at (x, y) for each vector: forward, and bi-directional against the
// first vector (the search's).
func padPredict(ref *Frame, x, y int, vs []MV, halfPel bool) []MBPixels {
	out := make([]MBPixels, 0, 2*len(vs))
	for _, v := range vs {
		for _, mode := range []PredMode{PredFwd, PredBi} {
			pred := garbageMB
			PredictHP(&pred, mode, ref, ref, x, y, v, vs[0], halfPel)
			out = append(out, pred)
		}
	}
	return out
}

func padMismatch(m padModel, in *padInput) string {
	if in.cur == nil {
		f := m.plane(in.pic, in.p)
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				if got, want := f.Pix[y*f.W+x], in.pic.At(x-in.p, y-in.p); got != want {
					return fmt.Sprintf("%dx%d picture, border %d: plane (%d,%d) is %d, At %d", in.pic.W, in.pic.H, in.p, x, y, got, want)
				}
			}
		}
		return ""
	}
	p := m.pad(in.r)
	f := m.plane(in.pic, p)
	name := fmt.Sprintf("%dx%d mb (%d,%d) r=%d half-pel %v, border %d", in.pic.W, in.pic.H, in.mbx, in.mby, in.r, in.halfPel, p)
	x, y, n := in.mbx*MBSize+p, in.mby*MBSize+p, MBSize+2*in.r
	if x-in.r < 0 || y-in.r < 0 || x-in.r+n > f.W || y-in.r+n > f.H {
		return name + ": the search window reaches outside the plane"
	}
	var mb MBPixels
	in.cur.GetMB(in.mbx, in.mby, &mb)
	if got := MotionSearch(&mb, f, x, y, in.r); got != in.want {
		return fmt.Sprintf("%s: search %+v on the plane, %+v on the picture", name, got, in.want)
	}
	mv := in.want.MV
	if in.halfPel {
		if got := refined(&mb, f, x, y, in.want); got != in.wantHP {
			return fmt.Sprintf("%s: half-pel refinement %+v on the plane, %+v on the picture", name, got, in.wantHP)
		}
		mv = in.wantHP.MV
	}
	preds := padPredict(f, x, y, padVectors(in, mv), in.halfPel)
	for i := range preds {
		if preds[i] != in.plain[i] {
			return fmt.Sprintf("%s: prediction %d (vector %v) %v on the plane, %v on the picture",
				name, i, padVectors(in, mv)[i/2], preds[i], in.plain[i])
		}
	}
	return ""
}

// padContract holds the encoder's reference planes to the pictures they
// pad. extendEdges fills a random 16×16, 48×32 and QCIF picture's border
// as Frame.At reads it, at p 0, 16 and 64. On the padded reference at
// (x+p, y+p), MotionSearch, RefineHalfPel and predView (through
// PredictHP) give what they give on the picture at (x, y), for every
// macroblock of a shifted-copy pair of those sizes (the true match of a
// border macroblock points outside the picture) at r 0, 1, 7, 8, 15, 16,
// 17 and 63, half-pel off and on, with prediction vectors past the pad;
// and every search window lies inside the plane, so the search reads it
// in place.
var padContract = sync.OnceValue(func() *contract[padModel] {
	var ins []padInput
	for si, sz := range [][2]int{{16, 16}, {48, 32}, {176, 144}} {
		for _, p := range []int{0, 16, 64} {
			ins = append(ins, padInput{pic: randomFrame(sz[0], sz[1], int64(50+si)), p: p})
		}
		pair := searchParityFrames(sz[0], sz[1], int64(60+si))
		cur, ref := pair[len(pair)-1].cur, pair[len(pair)-1].ref
		for _, r := range []int{0, 1, 7, 8, 15, 16, 17, maxSearchRange} {
			for _, halfPel := range []bool{false, true} {
				for mby := 0; mby < cur.MBRows(); mby++ {
					for mbx := 0; mbx < cur.MBCols(); mbx++ {
						in := padInput{pic: ref, cur: cur, mbx: mbx, mby: mby, r: r, halfPel: halfPel}
						x, y := mbx*MBSize, mby*MBSize
						var mb MBPixels
						cur.GetMB(mbx, mby, &mb)
						in.want = MotionSearch(&mb, ref, x, y, r)
						mv := in.want.MV
						if halfPel {
							in.wantHP = refined(&mb, ref, x, y, in.want)
							mv = in.wantHP.MV
						}
						in.plain = padPredict(ref, x, y, padVectors(&in, mv), halfPel)
						ins = append(ins, in)
					}
				}
			}
		}
	}
	return &contract[padModel]{
		n:        len(ins),
		mismatch: func(m padModel, i int) string { return padMismatch(m, &ins[i]) },
		kernel:   shippedPad,
		oracle:   padAt,
		faults: []fault[padModel]{
			{"corners left unfilled", padModel{refPad, extendModel(true, false)}},
			{"a pad one macroblock short of r", padModel{func(r int) int { return max(refPad(r)-MBSize, 0) }, extendEdges}},
			{"left and right edges swapped", padModel{refPad, extendModel(false, true)}},
		},
	}
})

func TestPaddedReferencesMatchPictures(t *testing.T) { padContract().verify(t) }

// mcKernels is one model of the MC kernels.
type mcKernels struct {
	reconstruct func(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block)
	residual    func(cur *MBPixels, pred []byte, pstride int, blocks *[BlocksPerMB]Block)
	average     func(dst *MBPixels, a []byte, astride int, b []byte, bstride int)
}

var goMC = mcKernels{reconstructGo, residualGo, averageGo}

// mcCase is one input of the MC kernels: a prediction p, q (Residual's
// current block, the average's other reference) and a residual.
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

// mcView is where a prediction view lies in a garbage-filled buffer: its
// rows at stride, with three bytes of garbage after the last row, or,
// atEnd, none, so the last row ends on the buffer's last byte.
type mcView struct {
	stride int
	atEnd  bool
}

var mcViews = []mcView{{MBSize, false}, {37, false}, {176, false}, {MBSize, true}, {37, true}, {176, true}}

// place returns a view of p laid out as v.
func (v mcView) place(p *MBPixels) []byte {
	buf := make([]byte, 3+15*v.stride+MBSize+3)
	if v.atEnd {
		buf = buf[:len(buf)-3]
	}
	for i := range buf {
		buf[i] = garbageMB[(i+101)%len(garbageMB)]
	}
	for j := 0; j < MBSize; j++ {
		copy(buf[3+j*v.stride:][:MBSize], p[j*MBSize:])
	}
	return buf[3:]
}

// mcCaseMismatch runs each kernel with p as a view in every mcViews
// layout against its Go body on the block itself: reconstruct at two
// destination strides, residual of q against p, and the average of p and
// q (q in the next layout), also in place.
func mcCaseMismatch(k mcKernels, c *mcCase) string {
	for li, v := range mcViews {
		w := mcViews[(li+1)%len(mcViews)]
		p, q := v.place(&c.p), w.place(&c.q)
		for _, stride := range []int{MBSize, 37} {
			var got, want [3 + 15*37 + MBSize + 3]byte
			for i := range got {
				got[i] = garbageMB[i%len(garbageMB)]
			}
			want = got
			k.reconstruct(got[3:], stride, p, v.stride, &c.blocks)
			reconstructGo(want[3:], stride, c.p[:], MBSize, &c.blocks)
			if got != want {
				return fmt.Sprintf("%s: reconstruct at stride %d from %+v %v, Go body %v", c.name, stride, v, got, want)
			}
		}
		gotRes := [BlocksPerMB]Block{garbageBlock, garbageBlock, garbageBlock, garbageBlock}
		var wantRes [BlocksPerMB]Block
		k.residual(&c.q, p, v.stride, &gotRes)
		residualGo(&c.q, c.p[:], MBSize, &wantRes)
		if gotRes != wantRes {
			return fmt.Sprintf("%s: residual from %+v %v, Go body %v", c.name, v, gotRes, wantRes)
		}
		got, want, gotIn := garbageMB, garbageMB, c.p
		k.average(&got, p, v.stride, q, w.stride)
		averageGo(&want, c.p[:], MBSize, c.q[:], MBSize)
		k.average(&gotIn, gotIn[:], MBSize, q, w.stride)
		if got != want || gotIn != want {
			return fmt.Sprintf("%s: average from %+v %v (in place %v), Go body %v", c.name, v, got, gotIn, want)
		}
	}
	return ""
}

// misreading is the Go bodies reading each prediction row j at
// pred[row(j, pstride)], a faulty model of the strided load.
func misreading(row func(j, pstride int) int) mcKernels {
	gather := func(pred []byte, pstride int) []byte {
		var p MBPixels
		for j := 0; j < MBSize; j++ {
			copy(p[j*MBSize:][:MBSize], pred[row(j, pstride):])
		}
		return p[:]
	}
	return mcKernels{
		func(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
			reconstructGo(dst, stride, gather(pred, pstride), MBSize, blocks)
		},
		func(cur *MBPixels, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
			residualGo(cur, gather(pred, pstride), MBSize, blocks)
		},
		func(dst *MBPixels, a []byte, astride int, b []byte, bstride int) {
			averageGo(dst, gather(a, astride), MBSize, gather(b, bstride), MBSize)
		},
	}
}

// mcContract's inputs: the pixels 0, 1, 254 and 255 paired with each
// other and with the residuals −32768, −256, −255, −1, 0, 1, 255, 256 and
// 32767 in 36 rotations, so each pair meets many lanes (255 + 32767 is
// where a wrapping add packs to 0); random blocks over int16 and over the
// residual range; and the Fig. 10 clip's macroblocks against the frame
// before, with the clip's coded residuals in turn.
func mcContract(tb testing.TB) *contract[mcKernels] {
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
	clip := loadCodedClip(tb)
	frames, n := clip.frames, 0
	for f := 1; f < len(frames); f++ {
		for mby := 0; mby < frames[f].MBRows(); mby++ {
			for mbx := 0; mbx < frames[f].MBCols(); mbx++ {
				c := mcCase{name: fmt.Sprintf("fig10/frame %d mb (%d,%d)", f, mbx, mby)}
				frames[f].GetMB(mbx, mby, &c.p)
				frames[f-1].GetMB(mbx, mby, &c.q)
				for b := range c.blocks {
					IDCT(&clip.coef[n%len(clip.coef)], &c.blocks[b])
					n++
				}
				cases = append(cases, c)
			}
		}
	}
	wrapping := goMC
	wrapping.reconstruct = func(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
		for i := 0; i < MBSize*MBSize; i++ {
			p := int(pred[i/MBSize*pstride+i%MBSize])
			dst[i/MBSize*stride+i%MBSize] = clampByte(int(int16(p + int(*resAt(blocks, i)))))
		}
	}
	truncating := goMC
	truncating.average = func(dst *MBPixels, a []byte, astride int, b []byte, bstride int) {
		for i := range dst {
			x, y := i%MBSize, i/MBSize
			dst[i] = byte((int(a[y*astride+x]) + int(b[y*bstride+x])) >> 1)
		}
	}
	return &contract[mcKernels]{
		n:        len(cases),
		mismatch: func(k mcKernels, i int) string { return mcCaseMismatch(k, &cases[i]) },
		kernel:   mcKernels{reconstruct, residual, average},
		oracle:   goMC,
		faults: []fault[mcKernels]{
			{"a wrapping reconstruct", wrapping},
			{"a truncating average", truncating},
			{"bodies that ignore pstride", misreading(func(j, _ int) int { return j * MBSize })},
			{"bodies that read row j+8 at +128", misreading(func(j, ps int) int { return j%8*ps + j/8*128 })},
		},
	}
}

func TestMCKernelsMatchGo(t *testing.T) { mcContract(t).holds(t) }

// TestMCParityCatchesFaults covers the three MC rows: the MC kernels, the
// clamped fetch and the prediction view.
func TestMCParityCatchesFaults(t *testing.T) {
	mcContract(t).checkFaults(t)
	fetchContract().checkFaults(t)
	predContract().checkFaults(t)
}

// FuzzMCKernelParity derives an MC case and two 48×32 frames for the
// fetch and the prediction view from the fuzz bytes; the view's mode and
// half-pel flag come from the first byte, its vectors from x and y.
func FuzzMCKernelParity(f *testing.F) {
	f.Add(int8(-3), int8(5), []byte("eclipse mc kernel"))
	f.Add(int8(0), int8(0), []byte{255, 0x7f, 0xff})
	f.Add(int8(-20), int8(40), []byte{0, 0x80, 0x00, 1})
	f.Add(int8(50), int8(-17), []byte{0x10, 0x80, 0xff, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, x, y int8, data []byte) {
		if len(data) == 0 {
			return
		}
		c := mcCase{name: "fuzz"}
		var res [2 * MBSize * MBSize]byte
		fuzzFill(c.p[:], data, 0)
		fuzzFill(c.q[:], data, len(c.p))
		fuzzFill(res[:], data, 2*len(c.p))
		for i := range c.p {
			*resAt(&c.blocks, i) = int16(binary.LittleEndian.Uint16(res[2*i:]))
		}
		ref, bwd := NewFrame(48, 32), NewFrame(48, 32)
		fuzzFill(ref.Pix, data, 0)
		fuzzFill(bwd.Pix, data, len(ref.Pix))
		msg := mcCaseMismatch(mcKernels{reconstruct, residual, average}, &c)
		if msg == "" {
			msg = fetchMismatch(fetch, &fetchInput{ref, int(x), int(y)})
		}
		if msg == "" {
			in := predInput{ref, bwd, PredMode(data[0] % 5), 16, 16, MV{int16(x), int16(y)}, MV{int16(y), int16(x)}, data[0]&8 != 0}
			msg = predMismatch(PredictHP, &in)
		}
		if msg != "" {
			t.Fatal(msg)
		}
	})
}

// transforms is one model of the transform pair.
type transforms struct{ idct, fdct func(src, dst *Block) }

// matrixDCT is the reference model of both transforms, the plain 8×8
// matrix product: each pass maps row r to out[j][r] = (Σ_k in[r][k]·M[k][j]
// + 2048) >> 12 in int32, so the second pass reads the first's output as
// rows, and clamp narrows the result. M = dctTab is the IDCT, dctTabᵀ the
// FDCT.
func matrixDCT(m *[8][8]int32, clamp func(int32) int16) func(src, dst *Block) {
	return func(src, dst *Block) {
		var in, out [64]int32
		for i, v := range src {
			in[i] = int32(v)
		}
		for pass := 0; pass < 2; pass++ {
			for r := 0; r < 8; r++ {
				for j := 0; j < 8; j++ {
					var s int32
					for k := 0; k < 8; k++ {
						s += in[r*8+k] * m[k][j]
					}
					out[j*8+r] = (s + fixRound) >> 12
				}
			}
			in = out
		}
		for i, v := range in {
			dst[i] = clamp(v)
		}
	}
}

var dctTabT = func() (t [8][8]int32) {
	for u := range t {
		for x := range t[u] {
			t[u][x] = dctTab[x][u]
		}
	}
	return t
}()

var matrixTransforms = transforms{matrixDCT(&dctTab, clamp16), matrixDCT(&dctTabT, clamp16)}

// wrap16 is the faulty narrowing: the low 16 bits instead of clamp16.
func wrap16(x int32) int16 { return int16(x) }

func transformMismatch(k transforms, b *Block) string {
	var got, want Block
	k.idct(b, &got)
	matrixTransforms.idct(b, &want)
	if got != want {
		return fmt.Sprintf("IDCT(%v) = %v, matrix product %v", *b, got, want)
	}
	k.fdct(b, &got)
	matrixTransforms.fdct(b, &want)
	if got != want {
		return fmt.Sprintf("FDCT(%v) = %v, matrix product %v", *b, got, want)
	}
	return ""
}

// transformBlocks returns the block set of the transform contracts:
// edge-case blocks (zero, DC-only, every single-coefficient block at ±1,
// 32767 and −32768), random dense blocks over the whole int16 range (the
// largest sums either transform can form), random sparse blocks and every
// coded block of the Fig. 10 clip.
func transformBlocks(tb testing.TB) (blocks []Block) {
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
	return append(blocks, loadCodedClip(tb).coef...)
}

// transformContract's oracle is the butterfly pair, the portable bodies.
func transformContract(tb testing.TB) *contract[transforms] {
	blocks := transformBlocks(tb)
	return &contract[transforms]{
		n:        len(blocks),
		mismatch: func(k transforms, i int) string { return transformMismatch(k, &blocks[i]) },
		kernel:   transforms{IDCT, FDCT},
		oracle:   transforms{idctGo, fdctGo},
		faults: []fault[transforms]{
			{"an IDCT that wraps instead of clamping", transforms{matrixDCT(&dctTab, wrap16), FDCT}},
			{"an FDCT that wraps instead of clamping", transforms{IDCT, matrixDCT(&dctTabT, wrap16)}},
		},
	}
}

func TestTransformsMatchMatrixProduct(t *testing.T) { transformContract(t).verify(t) }

// dctKernel is a model of dct2dSSE2 with its table named by direction.
// dct2dSSE2 exists only on amd64, so its row is in dct_amd64_test.go,
// which also sets dct2dFuzz, the row's check of one block.
type dctKernel func(src, dst *Block, forward bool) bool

var dct2dFuzz func(b *Block) string

// FuzzTransformParity reads 128 fuzz bytes as one little-endian block
// (zero-padded, so sparse blocks are easy to reach) for the transform and
// dct2dSSE2 rows, and the same bytes as run/level events for RLSQ.
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
		msg := transformMismatch(transforms{IDCT, FDCT}, &b)
		if msg == "" && dct2dFuzz != nil {
			msg = dct2dFuzz(&b)
		}
		// Event i: a signed run from byte 4i, a 24-bit signed level from
		// bytes 4i+1..4i+3 (outside int16, to reach the truncation).
		in := rlsqInput{name: "fuzz", q: int(q%31) + 1}
		for i := 0; i+4 <= len(data); i += 4 {
			lvl := int32(binary.LittleEndian.Uint32(data[i:])) >> 8
			in.events = append(in.events, RunLevel{Run: int(int8(data[i])), Level: lvl})
		}
		if msg == "" {
			msg = rlsqMismatch(RLSQTokensToCoef, &in)
		}
		if msg != "" {
			t.Fatal(msg)
		}
	})
}

type rlsqKernel func(events []RunLevel, q int, out *Block) error

// rlsqThreeStep is the reference model of RLSQTokensToCoef: the three
// passes it fuses, each over the whole block.
func rlsqThreeStep(events []RunLevel, q int, out *Block) error {
	var zz, dzz Block
	if !RunLengthExpand(events, &zz) {
		return ErrBitstream
	}
	Dequantize(&zz, &dzz, q)
	InverseZigzag(&dzz, out)
	return nil
}

type rlsqInput struct {
	name   string
	events []RunLevel
	q      int
}

// rlsqMismatch compares the verdict, the error class and, on success, the
// block.
func rlsqMismatch(k rlsqKernel, in *rlsqInput) string {
	var got, want Block
	wantErr := rlsqThreeStep(in.events, in.q, &want)
	err := k(in.events, in.q, &got)
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Sprintf("%s q=%d %v: accepted %v, three-step accepted %v", in.name, in.q, in.events, err == nil, wantErr == nil)
	case err != nil && !errors.Is(err, ErrBitstream):
		return fmt.Sprintf("%s q=%d %v: error %v is not ErrBitstream", in.name, in.q, in.events, err)
	case err == nil && got != want:
		return fmt.Sprintf("%s q=%d %v: block %v, three-step %v", in.name, in.q, in.events, got, want)
	}
	return ""
}

// rlsqCases are valid, clamping and malformed event lists, each with the
// verdict RLSQTokensToCoef must give at every q.
var rlsqCases = []struct {
	name   string
	events []RunLevel
	ok     bool
}{
	{"empty", nil, true},
	{"dc", []RunLevel{{0, 5}}, true},
	{"last coefficient", []RunLevel{{63, -1}}, true},
	{"dense", func() []RunLevel {
		ev := make([]RunLevel, 64)
		for i := range ev {
			ev[i] = RunLevel{0, int32(i-32) | 1}
		}
		return ev
	}(), true},
	{"escape range", []RunLevel{{0, MaxLevel}, {3, -MaxLevel}}, true},
	{"dequant clamps", []RunLevel{{0, 32767}, {0, -32768}}, true},
	{"level wraps int16", []RunLevel{{1, 65537}, {2, -65535}}, true},
	{"overflow", []RunLevel{{63, 1}, {0, 1}}, false},
	{"run past end", []RunLevel{{64, 1}}, false},
	{"zero level", []RunLevel{{2, 3}, {0, 0}}, false},
	{"zero level past end", []RunLevel{{70, 0}}, false},
	{"negative run", []RunLevel{{5, 1}, {-1, 1}}, false},
	{"negative first run", []RunLevel{{-1, 1}}, false},
}

// rlsqContract runs rlsqCases, each of which must get its verdict, and
// every coded block of the Fig. 10 clip at every q in 1..31.
func rlsqContract(tb testing.TB) *contract[rlsqKernel] {
	var ins []rlsqInput
	for q := 1; q <= 31; q++ {
		for _, c := range rlsqCases {
			var out Block
			if err := RLSQTokensToCoef(c.events, q, &out); (err == nil) != c.ok {
				tb.Fatalf("%s q=%d: err %v, want ok=%v", c.name, q, err, c.ok)
			}
			ins = append(ins, rlsqInput{c.name, c.events, q})
		}
	}
	for q := 1; q <= 31; q++ {
		for i, ev := range loadCodedClip(tb).events {
			ins = append(ins, rlsqInput{fmt.Sprintf("coded block %d", i), ev, q})
		}
	}
	dropLast := func(events []RunLevel, q int, out *Block) error {
		return RLSQTokensToCoef(events[:max(len(events)-1, 0)], q, out)
	}
	acceptAll := func(events []RunLevel, q int, out *Block) error {
		_ = RLSQTokensToCoef(events, q, out)
		return nil
	}
	return &contract[rlsqKernel]{
		n:        len(ins),
		mismatch: func(k rlsqKernel, i int) string { return rlsqMismatch(k, &ins[i]) },
		kernel:   RLSQTokensToCoef,
		oracle:   rlsqThreeStep,
		faults: []fault[rlsqKernel]{
			{"a scatter that drops the last event", dropLast},
			{"a scatter that accepts malformed lists", acceptAll},
		},
	}
}

func TestRLSQTokensToCoefMatchesThreeStep(t *testing.T) { rlsqContract(t).verify(t) }

// int16Block returns block j of 1 024 that together hold every int16
// once: coefficient i of block j is int16(64j + i).
func int16Block(j int) (b Block) {
	for i := range b {
		b[i] = int16(64*j + i)
	}
	return b
}

type quantKernel func(coef, zz *Block, q int, intra bool) (nz int)

// quantModel is quantScan with its choices exposed; the zero value is
// the oracle, and each field is one of the row's faults: floor rounds the
// reciprocal down, halfCut lowers the intra offset below q, noClamp drops
// the ±MaxLevel bound and wide widens the zero test by one.
type quantModel struct {
	floor   bool
	halfCut int
	noClamp bool
	wide    int32
}

func (f quantModel) scan(coef, zz *Block, q int, intra bool) (nz int) {
	d := uint64(2 * q)
	m := (1<<32 + d - 1) / d
	if f.floor {
		m = (1 << 32) / d
	}
	half := 0
	if intra {
		half = q - f.halfCut
	}
	t := int32(2*q-half) + f.wide
	zero := func(i int) bool { c := int32(coef[zigzag[i]]); return -t < c && c < t }
	*zz = Block{}
	first, last := 0, 63
	for first < 64 && zero(first) {
		first++
	}
	for last >= first && zero(last) {
		last--
	}
	for i := first; i <= last; i++ {
		c := int32(coef[zigzag[i]])
		lvl := (uint64(max(c, -c)) + uint64(half)) * m >> 32
		if !f.noClamp {
			lvl = min(lvl, MaxLevel)
		}
		zz[i] = int16(lvl)
		if c < 0 {
			zz[i] = -zz[i]
		}
		if lvl != 0 {
			nz++
		}
	}
	return nz
}

// quantBlock returns input b of the quantScan row at q, intra: b < 1024
// is int16Block(b), so every int16 occurs; above that, a zigzag position
// k and a value v at the zero test's edge, ±(t − 1) or ±t with
// t = 2q − half, either alone at k or with −v at 63 − k.
func quantBlock(b, q int, intra bool) (coef Block) {
	if b < 1024 {
		return int16Block(b)
	}
	b -= 1024
	t := int16(2 * q)
	if intra {
		t -= int16(q)
	}
	k, v := b/8, [4]int16{-t, 1 - t, t - 1, t}[b%4]
	coef[zigzag[k]] = v
	if b%8 >= 4 {
		coef[zigzag[63-k]] = -v
	}
	return coef
}

// quantScanContract holds quantScan to ZigzagScan, then Quantize (intra)
// or QuantizeInter, then NonzeroCount, at every q in 1..63, intra and
// inter, over every int16 and over sparse blocks at the edge of the zero
// test: 126 × (1 024 + 512) blocks.
func quantScanContract() *contract[quantKernel] {
	const perQ = 1024 + 64*8
	return &contract[quantKernel]{
		n: perQ * 63 * 2,
		mismatch: func(k quantKernel, i int) string {
			q, intra := i/perQ%63+1, i >= perQ*63
			coef := quantBlock(i%perQ, q, intra)
			var zz, want Block
			ZigzagScan(&coef, &zz)
			if intra {
				Quantize(&zz, &want, q)
			} else {
				QuantizeInter(&zz, &want, q)
			}
			got := garbageBlock
			if nz := k(&coef, &got, q, intra); got != want || nz != NonzeroCount(&want) {
				return fmt.Sprintf("block %d q=%d intra=%v: levels %v (%d nonzero), want %v (%d)", i%perQ, q, intra, got, nz, want, NonzeroCount(&want))
			}
			return ""
		},
		kernel: quantScan,
		oracle: quantModel{}.scan,
		faults: []fault[quantKernel]{
			{"a floor reciprocal", quantModel{floor: true}.scan},
			{"an intra offset of q−1", quantModel{halfCut: 1}.scan},
			{"no clamp", quantModel{noClamp: true}.scan},
			{"a zero test one too wide", quantModel{wide: 1}.scan},
		},
	}
}

func TestQuantScanMatchesThreePasses(t *testing.T) { quantScanContract().verify(t) }

type dequantKernel func(zz, coef *Block, q int)

// dequantScanContract holds DequantScan to RLSQTokensToCoef of the
// block's run/level events over every int16 at every q in 1..63: 64 512
// blocks. The oracle is Dequantize, then InverseZigzag.
func dequantScanContract() *contract[dequantKernel] {
	const qs = 63
	var events []RunLevel
	return &contract[dequantKernel]{
		n: 1024 * qs,
		mismatch: func(k dequantKernel, i int) string {
			zz, q := int16Block(i%1024), i/1024+1
			var want Block
			events = AppendRunLength(events[:0], &zz)
			if err := RLSQTokensToCoef(events, q, &want); err != nil {
				return err.Error()
			}
			got := garbageBlock
			if k(&zz, &got, q); got != want {
				return fmt.Sprintf("block %d q=%d: %v, want %v", i%1024, q, got, want)
			}
			return ""
		},
		kernel: DequantScan,
		oracle: func(zz, coef *Block, q int) {
			var d Block
			Dequantize(zz, &d, q)
			InverseZigzag(&d, coef)
		},
		faults: []fault[dequantKernel]{{"a scatter in zigzag order", Dequantize}},
	}
}

func TestDequantScanMatchesRLSQ(t *testing.T) { dequantScanContract().verify(t) }

type vleKernel func(w *BitWriter, rl RunLevel)

// encodeRunLevelRef is the reference model of EncodeRunLevel, one write
// per field: a pair's code, then its sign bit; or ESC's code, the run and
// the level.
func encodeRunLevelRef(w *BitWriter, rl RunLevel) {
	abs := max(rl.Level, -rl.Level)
	if rl.Run <= vlcMaxRun && abs <= vlcMaxLevel {
		coefTable.Encode(w, pairSym(rl.Run, abs))
		if rl.Level < 0 {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
		return
	}
	coefTable.Encode(w, symESC)
	w.WriteBits(uint32(rl.Run), escRunBits)
	w.WriteBits(uint32(rl.Level)&(1<<escLevelBits-1), escLevelBits)
}

// vleModel is EncodeRunLevel's two merged writes built from coefTable's
// codes, with the sign bit inverted when flip is set and an ESC run field
// of runBits bits.
func vleModel(flip bool, runBits uint) vleKernel {
	return func(w *BitWriter, rl RunLevel) {
		abs := max(rl.Level, -rl.Level)
		if rl.Run <= vlcMaxRun && abs <= vlcMaxLevel {
			c, sign := coefTable.codes[pairSym(rl.Run, abs)], uint32(0)
			if (rl.Level < 0) != flip {
				sign = 1
			}
			w.WriteBits(c.Bits<<1|sign, uint(c.Len)+1)
			return
		}
		c := coefTable.codes[symESC]
		w.WriteBits(c.Bits<<runBits|uint32(rl.Run)&(1<<runBits-1), uint(c.Len)+runBits)
		w.WriteBits(uint32(rl.Level)&(1<<escLevelBits-1), escLevelBits)
	}
}

// vleContract holds EncodeRunLevel to the field-by-field writes for every
// codable event: run 0..63 × level ±1..MaxLevel and −MaxLevel−1, each
// written on its own, 262 080 events; input i is run i.
func vleContract() *contract[vleKernel] {
	var got, want BitWriter
	return &contract[vleKernel]{
		n: MaxRun + 1,
		mismatch: func(k vleKernel, run int) string {
			for lvl := int32(-MaxLevel - 1); lvl <= MaxLevel; lvl++ {
				if lvl == 0 {
					continue
				}
				rl := RunLevel{run, lvl}
				got, want = BitWriter{buf: got.buf[:0]}, BitWriter{buf: want.buf[:0]}
				k(&got, rl)
				encodeRunLevelRef(&want, rl)
				gotLen, wantLen := got.BitLen(), want.BitLen()
				if gotLen != wantLen || !bytes.Equal(got.Bytes(), want.Bytes()) {
					return fmt.Sprintf("%+v: %x (%d bits), want %x (%d bits)", rl, got.Bytes(), gotLen, want.Bytes(), wantLen)
				}
			}
			return ""
		},
		kernel: EncodeRunLevel,
		oracle: vleModel(false, escRunBits),
		faults: []fault[vleKernel]{
			{"an inverted sign bit", vleModel(true, escRunBits)},
			{"a 5-bit ESC run field", vleModel(false, 5)},
		},
	}
}

func TestRunLevelTableEncodeMatchesFieldWrites(t *testing.T) { vleContract().verify(t) }

type vldKernel func(r *BitReader) (rl RunLevel, eob bool, bits uint)

// runLevelStepMismatch decodes data from bit skip to its first error with
// decode and with decodeRunLevelSlow over the production table in
// lockstep, and describes the first step where they differ in event,
// bits, BitPos or error (nil-ness, PastEnd, text), or returns "".
func runLevelStepMismatch(decode vldKernel, data []byte, skip uint) string {
	r1, r2 := NewBitReader(data), NewBitReader(data)
	r1.Skip(skip)
	r2.Skip(skip)
	for step := 0; r2.Err() == nil; step++ {
		rl1, eob1, b1 := decode(r1)
		rl2, eob2, b2 := decodeRunLevelSlow(coefTable, r2)
		if rl1 != rl2 || eob1 != eob2 || b1 != b2 || r1.BitPos() != r2.BitPos() {
			return fmt.Sprintf("step %d: got (%+v, eob %v, %d bits, pos %d), oracle (%+v, eob %v, %d bits, pos %d)",
				step, rl1, eob1, b1, r1.BitPos(), rl2, eob2, b2, r2.BitPos())
		}
		e1, e2 := r1.Err(), r2.Err()
		if (e1 == nil) != (e2 == nil) || r1.PastEnd() != r2.PastEnd() || e1 != nil && e1.Error() != e2.Error() {
			return fmt.Sprintf("step %d: got err %v (pastEnd %v), oracle err %v (pastEnd %v)", step, e1, r1.PastEnd(), e2, r2.PastEnd())
		}
	}
	return ""
}

// vldContract cuts every coded event at every bit: the events follow a
// pad of 0..7 bits and each stream is cut after every byte, so a cut falls
// at every bit of every event and every distance from the window's 8-byte
// bound. The faulty tables have one code one bit too long, a first-level
// code (EOB) and one the second level resolves (ESC).
func vldContract() *contract[vldKernel] {
	type cut struct {
		data []byte
		pad  uint
	}
	var ins []cut
	for pad := uint(0); pad < 8; pad++ {
		enc := encodeRunLevels(pad, runLevelEvents())
		for n := 0; n <= len(enc); n++ {
			ins = append(ins, cut{enc[:n], pad})
		}
	}
	var faults []fault[vldKernel]
	for _, sym := range []int{symEOB, symESC} {
		faulty := *coefTable
		faulty.lut = slices.Clone(coefTable.lut)
		for i, e := range faulty.lut {
			if e != 0 && e&huffLUTSub == 0 && int(e>>8) == sym {
				faulty.lut[i]++
			}
		}
		faults = append(faults, fault[vldKernel]{fmt.Sprintf("a table whose symbol %d is one bit too long", sym),
			func(r *BitReader) (RunLevel, bool, uint) { return decodeRunLevel(&faulty, r) }})
	}
	return &contract[vldKernel]{
		n: len(ins),
		mismatch: func(k vldKernel, i int) string {
			if msg := runLevelStepMismatch(k, ins[i].data, ins[i].pad); msg != "" {
				return fmt.Sprintf("pad %d cut %d: %s", ins[i].pad, len(ins[i].data), msg)
			}
			return ""
		},
		kernel: DecodeRunLevel,
		oracle: func(r *BitReader) (RunLevel, bool, uint) { return decodeRunLevelSlow(coefTable, r) },
		faults: faults,
	}
}

// TestRunLevelWindowParity first decodes every coded event through
// DecodeRunLevel.
func TestRunLevelWindowParity(t *testing.T) {
	evs := runLevelEvents()
	r := NewBitReader(encodeRunLevels(0, evs))
	for i, want := range evs {
		if got, eob, _ := DecodeRunLevel(r); got != want || eob != (want == RunLevel{}) || r.Err() != nil {
			t.Fatalf("event %d: got %+v eob %v err %v, want %+v", i, got, eob, r.Err(), want)
		}
	}
	vldContract().holds(t)
}

func TestRunLevelParityCatchesFaults(t *testing.T) { vldContract().checkFaults(t) }

// FuzzRunLevelParity runs the VLD row on arbitrary bytes read from a bit
// offset of 0..7, through invalid codes, sticky errors and the tail.
func FuzzRunLevelParity(f *testing.F) {
	f.Add(uint8(0), encodeRunLevels(0, runLevelEvents()))
	f.Add(uint8(5), encodeRunLevels(3, runLevelEvents()[250:]))
	f.Add(uint8(1), bytes.Repeat([]byte{0xff}, 12))
	f.Add(uint8(7), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89})
	f.Fuzz(func(t *testing.T, skip uint8, data []byte) {
		if msg := runLevelStepMismatch(DecodeRunLevel, data, uint(skip%8)); msg != "" {
			t.Fatal(msg)
		}
	})
}

type mbParseKernel func(r *BitReader, ftype FrameType, mvp *MVPredictor, q int, coef *[BlocksPerMB]Block) (MBDecision, byte, error)

// parseMBTwoPass is the reference model of parseMBCoef: the VLD's token,
// then RLSQ over it, the two Fig. 8 tasks the decoder fuses.
func parseMBTwoPass(r *BitReader, ftype FrameType, mvp *MVPredictor, q int, coef *[BlocksPerMB]Block) (MBDecision, byte, error) {
	var tok TokenMB
	dec, err := ParseMBSyntaxInto(r, ftype, mvp, &tok)
	if err == nil {
		err = RLSQDecodeMB(&tok, q, coef)
	}
	return dec, tok.CBP, err
}

// fusedModel is parseMBCoef with one fault switched on: eager reports an
// overflow at once instead of after the macroblock, noCap drops the
// 65-event check, and step is the dequantizer's multiple of q.
type fusedModel struct {
	eager, noCap bool
	step         int
}

func (m fusedModel) parse(r *BitReader, ftype FrameType, mvp *MVPredictor, q int, coef *[BlocksPerMB]Block) (MBDecision, byte, error) {
	dec, cbp := parseMBHeader(r, ftype, mvp)
	overflow := false
	for b := range coef {
		coef[b] = Block{}
		for n, pos := 0, 0; cbp&(1<<b) != 0; n, pos = n+1, pos+1 {
			rl, eob, _ := DecodeRunLevel(r)
			if err := r.Err(); err != nil {
				return dec, cbp, err
			}
			if eob {
				break
			}
			if n == maxBlockEvents && !m.noCap {
				return dec, cbp, errBlockEvents
			}
			pos += rl.Run
			switch {
			case uint(pos) >= 64 || rl.Level == 0 || rl.Run < 0:
				if m.eager {
					return dec, cbp, errRunLevelOverflow
				}
				overflow = true
			case !overflow:
				coef[b][zigzag[pos]] = clamp16(int32(int16(rl.Level)) * int32(m.step*q))
			}
		}
	}
	if overflow {
		return dec, cbp, errRunLevelOverflow
	}
	return dec, cbp, r.Err()
}

// mbParseInput is one macroblock: its syntax starts at bit of data, in a
// frame of type ftype, with the predictor mvp on entry.
type mbParseInput struct {
	name  string
	data  []byte
	bit   int
	ftype FrameType
	mvp   MVPredictor
	q     int
}

// mbParseMismatch compares the decision, the pattern, the predictor after
// the macroblock, the bits consumed, the error (verdict, ErrBitstream
// class and text) and, on success, every block's coefficients.
func mbParseMismatch(k mbParseKernel, in *mbParseInput) string {
	type outcome struct {
		dec  MBDecision
		cbp  byte
		mvp  MVPredictor
		pos  int
		err  error
		coef [BlocksPerMB]Block
	}
	run := func(k mbParseKernel) (o outcome) {
		r := NewBitReader(in.data)
		r.Skip(uint(in.bit))
		o.mvp = in.mvp
		o.coef = [BlocksPerMB]Block{garbageBlock, garbageBlock, garbageBlock, garbageBlock}
		o.dec, o.cbp, o.err = k(r, in.ftype, &o.mvp, in.q, &o.coef)
		o.pos = r.BitPos()
		return o
	}
	got, want := run(k), run(parseMBTwoPass)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case got.dec != want.dec || got.cbp != want.cbp || got.mvp != want.mvp || got.pos != want.pos:
		return fmt.Sprintf("%s q=%d: %+v cbp %04b mvp %+v at bit %d, two passes %+v cbp %04b mvp %+v at bit %d",
			in.name, in.q, got.dec, got.cbp, got.mvp, got.pos, want.dec, want.cbp, want.mvp, want.pos)
	case errText(got.err) != errText(want.err) || errors.Is(got.err, ErrBitstream) != errors.Is(want.err, ErrBitstream):
		return fmt.Sprintf("%s q=%d: error %v, two passes %v", in.name, in.q, got.err, want.err)
	case got.err == nil && got.coef != want.coef:
		for b := range got.coef {
			if got.coef[b] != want.coef[b] {
				return fmt.Sprintf("%s q=%d: block %d %v, two passes %v", in.name, in.q, b, got.coef[b], want.coef[b])
			}
		}
	}
	return ""
}

// streamMBs lists every macroblock of a stream, walked with the token
// path, once for each q (the stream's own when none is given).
func streamMBs(tb testing.TB, name string, stream []byte, qs ...int) []mbParseInput {
	tb.Helper()
	r := NewBitReader(stream)
	seq, err := ParseSeqHeader(r)
	if err != nil {
		tb.Fatal(err)
	}
	if len(qs) == 0 {
		qs = []int{seq.Q}
	}
	var ins []mbParseInput
	var tok TokenMB
	for fi := 0; fi < seq.Frames; fi++ {
		hdr, err := ParseFrameHdr(r)
		if err != nil {
			tb.Fatal(err)
		}
		var mvp MVPredictor
		for mby := 0; mby < seq.MBRows; mby++ {
			mvp.RowStart()
			for mbx := 0; mbx < seq.MBCols; mbx++ {
				in := mbParseInput{name: fmt.Sprintf("%s frame %d mb (%d,%d)", name, fi, mbx, mby),
					data: stream, bit: r.BitPos(), ftype: hdr.Type, mvp: mvp}
				if _, err := ParseMBSyntaxInto(r, hdr.Type, &mvp, &tok); err != nil {
					tb.Fatalf("%s: %v", in.name, err)
				}
				for _, q := range qs {
					in.q = q
					ins = append(ins, in)
				}
			}
		}
	}
	return ins
}

// handMB writes an I-frame macroblock coding the given blocks (nil is
// uncoded), each event list closed by EOB. A zero level is written as an
// ESC with a zero level field, which no encoder emits.
func handMB(blocks ...[]RunLevel) []byte {
	w := NewBitWriter()
	var cbp uint32
	for b, evs := range blocks {
		if evs != nil {
			cbp |= 1 << b
		}
	}
	w.WriteBits(cbp, 4)
	for _, evs := range blocks {
		if evs == nil {
			continue
		}
		for _, rl := range evs {
			if rl.Level == 0 {
				w.WriteBits(escCode.Bits<<escRunBits|uint32(rl.Run), uint(escCode.Len)+escRunBits)
				w.WriteBits(0, escLevelBits)
			} else {
				EncodeRunLevel(w, rl)
			}
		}
		EncodeEOB(w)
	}
	return w.Bytes()
}

// onesAfter returns first followed by events of run 0 and level 1, n
// events in all.
func onesAfter(n int, first ...RunLevel) []RunLevel {
	for len(first) < n {
		first = append(first, RunLevel{0, 1})
	}
	return first
}

// handCase is a hand-built macroblock.
type handCase struct {
	name string
	mb   []byte
}

// handMBs are the macroblocks the error order turns on. A function, not
// a variable: the VLC tables are built in init, after package variables.
func handMBs() []handCase {
	return []handCase{
		{"overflow in block 0, truncation in block 2", handMB(onesAfter(2, RunLevel{63, 1}), nil, onesAfter(9, RunLevel{3, -7}))},
		{"zero-level ESC", handMB(nil, []RunLevel{{1, 4}, {3, 0}, {0, 2}})},
		{"64 events", handMB(onesAfter(64), nil, nil, []RunLevel{{0, MaxLevel}})},
		{"65 events", handMB(onesAfter(65), onesAfter(3))},
		{"overflow, then 65 events", handMB(onesAfter(1, RunLevel{63, 1}), onesAfter(65))},
		{"run to position 64", handMB(nil, nil, []RunLevel{{60, 1}, {3, -1}}, onesAfter(2))},
		{"run to position 63", handMB([]RunLevel{{60, 1}, {2, -1}}, nil, nil, onesAfter(2))},
	}
}

// fusedParseContract runs every macroblock of the Fig. 10 clip at every
// q in 1..31, every macroblock of the parity streams at their own q, and
// every byte prefix of each hand-built macroblock at q 1 and 31. The
// faulty models break the error order, the event cap and the step.
func fusedParseContract(tb testing.TB) *contract[mbParseKernel] {
	qs := make([]int, 31)
	for i := range qs {
		qs[i] = i + 1
	}
	ins := streamMBs(tb, "fig10", goldenStream(tb), qs...)
	for name, stream := range parityStreams(tb) {
		ins = append(ins, streamMBs(tb, name, stream)...)
	}
	for _, h := range handMBs() {
		for n := len(h.mb); n >= 0; n-- {
			for _, q := range []int{1, 31} {
				ins = append(ins, mbParseInput{name: fmt.Sprintf("%s cut %d", h.name, n), data: h.mb[:n], ftype: FrameI, q: q})
			}
		}
	}
	return &contract[mbParseKernel]{
		n:        len(ins),
		mismatch: func(k mbParseKernel, i int) string { return mbParseMismatch(k, &ins[i]) },
		kernel:   parseMBCoef,
		oracle:   parseMBTwoPass,
		faults: []fault[mbParseKernel]{
			{"an overflow reported before a later parse error", fusedModel{eager: true, step: 2}.parse},
			{"no 65-event check", fusedModel{noCap: true, step: 2}.parse},
			{"dequantization by q", fusedModel{step: 1}.parse},
		},
	}
}

func TestFusedParseMatchesTwoPass(t *testing.T) { fusedParseContract(t).verify(t) }

// FuzzFusedParseParity runs the fused-parse row on arbitrary bytes as
// one macroblock of any frame type, from a bit offset of 0..7.
func FuzzFusedParseParity(f *testing.F) {
	for i, h := range handMBs() {
		f.Add(uint8(FrameI), uint8(i), uint8(0), h.mb)
	}
	f.Add(uint8(FrameP), uint8(5), uint8(3), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f})
	f.Add(uint8(FrameB), uint8(30), uint8(6), bytes.Repeat([]byte{0xa5}, 20))
	f.Fuzz(func(t *testing.T, ftype, q, skip uint8, data []byte) {
		in := mbParseInput{name: "fuzz", data: data, bit: int(skip % 8), ftype: FrameType(ftype % 3), q: int(q%31) + 1}
		if msg := mbParseMismatch(parseMBCoef, &in); msg != "" {
			t.Fatal(msg)
		}
	})
}
