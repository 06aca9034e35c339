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
