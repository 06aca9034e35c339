package media

// Bit-exactness guard for the media kernel rewrites.
//
// The fast paths introduced by the PR3 kernel work (64-bit bitstream
// accumulator, LUT-driven VLD, event arenas, unrolled SAD/DCT, parallel
// mode decision) must all be perf-only: every encoded bit and every
// decoded pixel has to stay identical. This test pins SHA-256 hashes of
// the Figure 10 QCIF GOP — the encoder's bitstream and the decoder's
// display-order pixels — so any semantic drift in the kernels fails
// loudly here instead of silently moving downstream cycle counts.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenFig10 describes the canonical Fig. 10 workload: QCIF, 12 frames,
// Q=6, source seed 1 (identical to the DefaultFig10 / BenchmarkFig10
// stream builder in the root package).
const (
	goldenW      = 176
	goldenH      = 144
	goldenFrames = 12
	goldenQ      = 6
	goldenSeed   = 1

	// Pinned on the pre-rewrite kernels; must never change.
	goldenBitstreamSHA = "bb9425621f4fdd6dce27e13fe5171e5ff78f452ac6b23263f4411e60a71e432d"
	goldenFramesSHA    = "7805f16ee1e31e83adab959261b11cf23418e5668bf840126c8577864960c60b"
)

// goldenStream encodes the canonical workload once.
func goldenStream(t testing.TB) []byte {
	t.Helper()
	src := DefaultSource(goldenW, goldenH)
	src.Seed = goldenSeed
	frames := NewSource(src).Frames(goldenFrames)
	cfg := DefaultCodec(goldenW, goldenH)
	cfg.Q = goldenQ
	stream, _, _, err := Encode(cfg, frames)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return stream
}

// hashFrames folds every display-order frame (dimensions + pixels) into
// one SHA-256 so a drift in any single pixel of any frame is caught.
func hashFrames(t testing.TB, frames []*Frame) string {
	t.Helper()
	h := sha256.New()
	var dims [8]byte
	for i, f := range frames {
		if f == nil {
			t.Fatalf("display frame %d missing", i)
		}
		binary.BigEndian.PutUint32(dims[0:], uint32(f.W))
		binary.BigEndian.PutUint32(dims[4:], uint32(f.H))
		h.Write(dims[:])
		h.Write(f.Pix)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFig10Hashes is the bit-exactness guard: encode -> bitstream
// SHA and decode -> frame SHA for the Fig. 10 QCIF GOP.
func TestGoldenFig10Hashes(t *testing.T) {
	stream := goldenStream(t)
	if got := hex.EncodeToString(sumSHA(stream)); got != goldenBitstreamSHA {
		t.Errorf("encoded bitstream hash drifted:\n  got  %s\n  want %s", got, goldenBitstreamSHA)
	}
	res, err := Decode(stream)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(res.Coded) != goldenFrames {
		t.Fatalf("decoded %d frames, want %d", len(res.Coded), goldenFrames)
	}
	if got := hashFrames(t, res.DisplayFrames()); got != goldenFramesSHA {
		t.Errorf("decoded frame hash drifted:\n  got  %s\n  want %s", got, goldenFramesSHA)
	}

	// The pipeline-parallel decoder must reproduce the pinned hash for
	// every worker count: parallelism is perf-only.
	for workers := 1; workers <= 8; workers++ {
		res, err := DecodeWithOptions(stream, DecodeOptions{Workers: workers})
		if err != nil {
			t.Fatalf("decode workers=%d: %v", workers, err)
		}
		if got := hashFrames(t, res.DisplayFrames()); got != goldenFramesSHA {
			t.Errorf("workers=%d: decoded frame hash drifted:\n  got  %s\n  want %s", workers, got, goldenFramesSHA)
		}
	}

	// Streaming delivery must also be perf-only: hashing the frames as
	// OnDisplayFrame hands them out — at delivery time, in display order
	// — must reproduce the same pinned hash for every worker count.
	for workers := 1; workers <= 8; workers++ {
		h := sha256.New()
		var dims [8]byte
		nextDi := 0
		_, err := DecodeWithOptions(stream, DecodeOptions{
			Workers: workers,
			OnDisplayFrame: func(di int, f *Frame) error {
				if di != nextDi {
					t.Errorf("workers=%d: delivered display index %d, want %d", workers, di, nextDi)
				}
				nextDi++
				binary.BigEndian.PutUint32(dims[0:], uint32(f.W))
				binary.BigEndian.PutUint32(dims[4:], uint32(f.H))
				h.Write(dims[:])
				h.Write(f.Pix)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("streaming decode workers=%d: %v", workers, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenFramesSHA {
			t.Errorf("workers=%d: streaming-delivery frame hash drifted:\n  got  %s\n  want %s", workers, got, goldenFramesSHA)
		}
	}
}

func sumSHA(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// goldenEncodes pins the bitstreams of the shapes the benchmark rig's
// transcode workloads actually encode, which TestGoldenFig10Hashes does
// not reach (the rig verifies served bytes against media.Encode of the
// same binary, so it cannot see encoder drift). A clip is generated the
// way benchmark/clips.go does it — DefaultSource at the clip seed,
// DefaultCodec with the clip's GOP — and, where xcodeQ is set, decoded
// and re-encoded with the serve.TranscodeConfig parameters written out:
// DefaultCodec at the new Q, GOP and half-pel mode following the source.
//
// Both hashes of every row were taken at the parent of the motion-search
// rewrite (commit 4f52466, raster full search); they must never change.
var goldenEncodes = []struct {
	name         string
	w, h, frames int
	seed         int64
	gopN, gopM   int
	searchRange  int
	halfPel      bool
	xcodeQ       int // 0: pin the source encode only
	srcSHA       string
	xcodeSHA     string
}{
	// xcode_cold clip 0 of --seed 1: QCIF, 26 frames, closed N=13/M=3 GOPs, re-encoded at Q=9.
	{name: "xcode_cold", w: 176, h: 144, frames: 26, seed: 1, gopN: 13, gopM: 3, searchRange: 7, xcodeQ: 9,
		srcSHA: "0991551f0216476c17b7057c149393c2009edbfea8928720d33f05074cb7b734", xcodeSHA: "62d34558d7d272f4145ccab85cd17d17129f7183d1b501edff485e8371e38b8b"},
	{name: "xcode_cold_halfpel", w: 176, h: 144, frames: 26, seed: 1, gopN: 13, gopM: 3, searchRange: 7, halfPel: true, xcodeQ: 9,
		srcSHA: "2876c1e67d016d4439290fdab82a609fa8c1d977f8e5eca59f1b025e7338d6b2", xcodeSHA: "c317733390225e2fd7624037f734b8ce95287b5c72e2fe4a6b666a9d7aaa839d"},
	// tenant_open's bronze clip 0 of --seed 1 (clipSeed(1, 100)): 6×5 macroblocks, 18 of 30 on a border.
	{name: "tenant_open_bronze", w: 96, h: 80, frames: 26, seed: 1 + 7919*100, gopN: 13, gopM: 3, searchRange: 7, xcodeQ: 9,
		srcSHA: "377351633072f617724b0cf774d466f3bd2c244a8f4b3e8ed206eb466d8dceb9", xcodeSHA: "9ce60872d605bcc99bc56bb08ff465255455ff0b4830ac6001f889546350c530"},
	// A wide search: the ±15 window reaches outside the frame from every macroblock of a 96×80 picture.
	{name: "range15", w: 96, h: 80, frames: 7, seed: 3, gopN: 12, gopM: 3, searchRange: 15, halfPel: true,
		srcSHA: "2bb31d6acd2c6f571c36f3d815e69b320e2037463e5d72b2e1f7479701e609aa"},
}

func TestGoldenEncodeHashes(t *testing.T) {
	for _, g := range goldenEncodes {
		t.Run(g.name, func(t *testing.T) {
			src := DefaultSource(g.w, g.h)
			src.Seed = g.seed
			cfg := DefaultCodec(g.w, g.h)
			cfg.GOPN, cfg.GOPM, cfg.SearchRange, cfg.HalfPel = g.gopN, g.gopM, g.searchRange, g.halfPel
			stream, _, _, err := Encode(cfg, NewSource(src).Frames(g.frames))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(sumSHA(stream)); got != g.srcSHA {
				t.Errorf("source bitstream hash drifted:\n  got  %s\n  want %s", got, g.srcSHA)
			}
			if g.xcodeQ == 0 {
				return
			}
			res, err := Decode(stream)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			xcfg := DefaultCodec(res.Seq.W(), res.Seq.H())
			xcfg.Q, xcfg.GOPN, xcfg.GOPM, xcfg.HalfPel = g.xcodeQ, res.Seq.GOPN, res.Seq.GOPM, res.Seq.HalfPel
			out, _, _, err := Encode(xcfg, res.DisplayFrames())
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if got := hex.EncodeToString(sumSHA(out)); got != g.xcodeSHA {
				t.Errorf("transcoded bitstream hash drifted:\n  got  %s\n  want %s", got, g.xcodeSHA)
			}
		})
	}
}
