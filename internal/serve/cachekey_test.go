package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"eclipse/internal/media"
)

// canonPins maps each canonMagic to the SHA-256 of the offline codec's
// outputs for canonOutputs' clip: the encode at q 6, the decode of that
// stream and its transcode at q 9. Both tiers serve a keyed result as
// immutable, so the bytes under a content address must never move while
// canonMagic stays the same.
var canonPins = map[string][3]string{
	"eclipse-serve-key/1\x00": {
		"afe146afe73b58d924a1d92edd5adc85cbc4c7dcfd004c97bf5376abcba5690d",
		"071b034c637ef7334c9063cf1cd0f9af89c15f5e2e2c7aa159b2421c73597ee1",
		"a49e84af3e89272e4291a72392bab4b098ac611a3d1d671a89c7c1977db7299e",
	},
}

// canonOutputs returns the offline encode (q 6), decode and transcode
// (q 9) outputs of a small fixed clip: 6 frames of 64x48.
func canonOutputs(t *testing.T) [3][]byte {
	t.Helper()
	src := media.DefaultSource(64, 48)
	src.Seed = 7
	cfg := media.DefaultCodec(64, 48)
	cfg.Q = 6
	stream, _, _, err := media.Encode(cfg, media.NewSource(src).Frames(6))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, f := range ref.DisplayFrames() {
		raw = append(raw, f.Pix...)
	}
	xcode, _, _, err := media.Encode(TranscodeConfig(ref.Seq, 9), ref.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}
	return [3][]byte{stream, raw, xcode}
}

// checkCanonPins compares the outputs' hashes with magic's pinned row.
func checkCanonPins(magic string, outs [3][]byte) error {
	pin, ok := canonPins[magic]
	if !ok {
		return fmt.Errorf("canonMagic %q has no pinned outputs: add its row", magic)
	}
	for i, name := range [3]string{"encode q 6", "decode", "transcode q 9"} {
		sum := sha256.Sum256(outs[i])
		if got := hex.EncodeToString(sum[:]); got != pin[i] {
			return fmt.Errorf("codec output changed: bump canonMagic and re-pin (%s: sha256 %s, pinned %s)", name, got, pin[i])
		}
	}
	return nil
}

// TestCanonMagicPinsOutputs fails when the codec's output for a fixed
// input moves under an unchanged canonMagic: a cached or downstream copy
// of the old bytes would then be served as the new result. It also
// checks that a one-byte change is caught.
func TestCanonMagicPinsOutputs(t *testing.T) {
	outs := canonOutputs(t)
	if err := checkCanonPins(canonMagic, outs); err != nil {
		t.Fatal(err)
	}
	outs[1][len(outs[1])/2] ^= 1
	if checkCanonPins(canonMagic, outs) == nil {
		t.Fatal("a decode output with one byte flipped matched the pins")
	}
}
