package media

import (
	"fmt"
	"math"
	"math/rand"
)

// FrameType classifies a coded frame in the MPEG sense.
type FrameType uint8

const (
	FrameI FrameType = iota // intra coded
	FrameP                  // predicted from the previous reference
	FrameB                  // bi-directionally predicted
)

// String returns "I", "P", or "B".
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// MBSize is the macroblock edge in pixels. A macroblock is 16×16 luma
// samples, i.e. four 8×8 DCT blocks (chroma is omitted; see DESIGN.md).
const MBSize = 16

// BlocksPerMB is the number of 8×8 blocks in a macroblock.
const BlocksPerMB = 4

// Frame is a single-component (luma) picture.
type Frame struct {
	W, H int
	Pix  []byte // row-major, len = W*H
}

// NewFrame allocates a zeroed frame. Width and height must be positive
// multiples of MBSize.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 || w%MBSize != 0 || h%MBSize != 0 {
		panic(fmt.Sprintf("media: frame size %dx%d not a positive multiple of %d", w, h, MBSize))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h)}
}

// MBCols returns the number of macroblock columns.
func (f *Frame) MBCols() int { return f.W / MBSize }

// MBRows returns the number of macroblock rows.
func (f *Frame) MBRows() int { return f.H / MBSize }

// MBCount returns the number of macroblocks in the frame.
func (f *Frame) MBCount() int { return f.MBCols() * f.MBRows() }

// At returns the pixel at (x, y) with edge clamping, which implements the
// unrestricted-motion-vector padding used by motion compensation.
func (f *Frame) At(x, y int) byte {
	if x < 0 {
		x = 0
	} else if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= f.H {
		y = f.H - 1
	}
	return f.Pix[y*f.W+x]
}

// GetMB copies the 16×16 macroblock at macroblock coordinates (mbx, mby)
// into dst (row-major, 256 bytes).
func (f *Frame) GetMB(mbx, mby int, dst *[MBSize * MBSize]byte) {
	x0, y0 := mbx*MBSize, mby*MBSize
	for y := 0; y < MBSize; y++ {
		copy(dst[y*MBSize:(y+1)*MBSize], f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+MBSize])
	}
}

// SetMB stores a 16×16 macroblock at macroblock coordinates (mbx, mby).
func (f *Frame) SetMB(mbx, mby int, src *[MBSize * MBSize]byte) {
	x0, y0 := mbx*MBSize, mby*MBSize
	for y := 0; y < MBSize; y++ {
		copy(f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+MBSize], src[y*MBSize:(y+1)*MBSize])
	}
}

// Equal reports whether two frames have identical dimensions and pixels.
func (f *Frame) Equal(g *Frame) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			return false
		}
	}
	return true
}

// PSNR returns the peak signal-to-noise ratio of g against reference f in
// dB, or +Inf for identical frames. Frames must have equal dimensions.
func (f *Frame) PSNR(g *Frame) float64 {
	var sse float64
	for i := range f.Pix {
		d := float64(int(f.Pix[i]) - int(g.Pix[i]))
		sse += d * d
	}
	if sse == 0 {
		return math.Inf(1)
	}
	mse := sse / float64(len(f.Pix))
	return 10 * math.Log10(255*255/mse)
}

// SourceConfig parameterizes the synthetic video generator.
type SourceConfig struct {
	W, H     int
	Seed     int64
	Objects  int     // number of moving rectangles
	Noise    int     // amplitude of per-pixel noise (texture detail)
	Speed    int     // max object velocity in pixels/frame
	Detail   float64 // spatial frequency of the background gradient
	SceneCut int     // if > 0, frame index at which the scene changes
}

// DefaultSource returns a source configuration producing content with
// trackable motion and enough texture that I-frames are coefficient-dense
// relative to P/B frames, as in natural video.
func DefaultSource(w, h int) SourceConfig {
	return SourceConfig{W: w, H: h, Seed: 1, Objects: 4, Noise: 6, Speed: 3, Detail: 0.15}
}

type object struct {
	x, y, w, h int
	dx, dy     int
	shade      byte
}

// Source generates a deterministic synthetic video sequence: a textured
// background with moving rectangles and low-amplitude noise. Successive
// frames have genuine inter-frame motion so motion estimation finds real
// vectors, and scene cuts (optional) force intra decisions.
type Source struct {
	cfg  SourceConfig
	rng  *rand.Rand
	objs []object
	n    int // frames generated so far
	bg   []byte
}

// NewSource creates a generator for the given configuration.
func NewSource(cfg SourceConfig) *Source {
	s := &Source{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	s.buildBackground()
	for i := 0; i < cfg.Objects; i++ {
		s.objs = append(s.objs, s.randObject())
	}
	return s
}

func (s *Source) buildBackground() {
	w, h := s.cfg.W, s.cfg.H
	s.bg = make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 110 +
				60*math.Sin(s.cfg.Detail*float64(x)) +
				40*math.Sin(s.cfg.Detail*1.37*float64(y)+1.1) +
				20*math.Sin(s.cfg.Detail*0.61*float64(x+y))
			s.bg[y*w+x] = clampByte(int(v))
		}
	}
}

func (s *Source) randObject() object {
	w := 16 + s.rng.Intn(48)
	h := 16 + s.rng.Intn(48)
	sp := s.cfg.Speed
	if sp < 1 {
		sp = 1
	}
	dx, dy := 0, 0
	for dx == 0 && dy == 0 {
		dx = s.rng.Intn(2*sp+1) - sp
		dy = s.rng.Intn(2*sp+1) - sp
	}
	return object{
		x: s.rng.Intn(s.cfg.W), y: s.rng.Intn(s.cfg.H),
		w: w, h: h, dx: dx, dy: dy,
		shade: byte(40 + s.rng.Intn(180)),
	}
}

// Next generates the next frame of the sequence.
func (s *Source) Next() *Frame {
	if s.cfg.SceneCut > 0 && s.n == s.cfg.SceneCut {
		s.cfg.Seed += 7919
		s.cfg.Detail *= 1.9
		s.buildBackground()
		for i := range s.objs {
			s.objs[i] = s.randObject()
		}
	}
	w, h := s.cfg.W, s.cfg.H
	f := NewFrame(w, h)
	copy(f.Pix, s.bg)
	for i := range s.objs {
		o := &s.objs[i]
		for y := o.y; y < o.y+o.h; y++ {
			yy := ((y % h) + h) % h
			for x := o.x; x < o.x+o.w; x++ {
				xx := ((x % w) + w) % w
				f.Pix[yy*w+xx] = o.shade
			}
		}
		o.x += o.dx
		o.y += o.dy
	}
	if s.cfg.Noise > 0 {
		for i := range f.Pix {
			n := s.rng.Intn(2*s.cfg.Noise+1) - s.cfg.Noise
			f.Pix[i] = clampByte(int(f.Pix[i]) + n)
		}
	}
	s.n++
	return f
}

// Frames generates n successive frames.
func (s *Source) Frames(n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
