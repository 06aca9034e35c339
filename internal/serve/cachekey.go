package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"strings"

	"eclipse/internal/media"
	"eclipse/internal/slab"
)

// CacheKey is the content address of a response: the SHA-256 of the
// canonical preimage built from the operation kind, the codec
// parameters, and the input payload. Two requests share a key exactly
// when the codec is guaranteed to produce byte-identical output for
// them. The type itself (and its ETag rendering) lives with the cache
// mechanism both tiers store under it.
type CacheKey = slab.Key

// ETagMatches reports whether an If-None-Match header value matches the
// key's entity tag: a comma-separated list of (possibly weak) tags or
// the wildcard "*". Exported because the gateway tier answers client
// revalidations locally using the same content-address tags
// (internal/cluster).
func ETagMatches(header string, k CacheKey) bool {
	want := k.ETag()
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" {
			return true
		}
		tag = strings.TrimPrefix(tag, "W/")
		if tag == want || tag == strings.Trim(want, `"`) {
			return true
		}
	}
	return false
}

// keyParam is one named codec parameter of the canonical preimage.
type keyParam struct {
	name string
	val  uint64
}

// canonMagic versions the preimage layout; bump it if the schema ever
// changes so stale ETags can never alias new content.
const canonMagic = "eclipse-serve-key/1\x00"

// writeCanonicalKey writes the canonical preimage of a cache key. The
// layout is injective by construction: a fixed magic, the kind byte, a
// parameter count, each parameter as a length-prefixed name plus a
// fixed-width value, and the length-prefixed payload. Any difference in
// kind, parameter schema, parameter value, or payload therefore yields
// a different byte stream (FuzzCacheKeyCanonical pins this).
func writeCanonicalKey(w io.Writer, kind Kind, params []keyParam, payload []byte) {
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		w.Write(buf[:n])
	}
	io.WriteString(w, canonMagic)
	w.Write([]byte{byte(kind)})
	uv(uint64(len(params)))
	for _, p := range params {
		uv(uint64(len(p.name)))
		io.WriteString(w, p.name)
		binary.BigEndian.PutUint64(buf[:8], p.val)
		w.Write(buf[:8])
	}
	uv(uint64(len(payload)))
	w.Write(payload)
}

// computeCacheKey hashes the canonical preimage without materializing it.
func computeCacheKey(kind Kind, params []keyParam, payload []byte) CacheKey {
	h := sha256.New()
	writeCanonicalKey(h, kind, params, payload)
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// DecodeKey addresses a decode response: output depends only on the
// bitstream. Exported because the gateway tier routes by the same
// content address the cache stores under — identical requests land on
// the backend whose LRU already holds the result (internal/cluster).
func DecodeKey(stream []byte) CacheKey {
	return computeCacheKey(KindDecode, nil, stream)
}

// TranscodeKey addresses a transcode response: the bitstream plus the
// target quantizer (GOP structure and dimensions are inherited from
// the stream itself, so they are already covered by the payload).
func TranscodeKey(q int, stream []byte) CacheKey {
	return computeCacheKey(KindTranscode, []keyParam{{"q", uint64(int64(q))}}, stream)
}

// EncodeKey addresses an encode response: the raw planes plus every
// codec parameter that shapes the bitstream.
func EncodeKey(cfg media.CodecConfig, raw []byte) CacheKey {
	b := uint64(0)
	if cfg.HalfPel {
		b = 1
	}
	return computeCacheKey(KindEncode, []keyParam{
		{"w", uint64(int64(cfg.W))},
		{"h", uint64(int64(cfg.H))},
		{"q", uint64(int64(cfg.Q))},
		{"gopn", uint64(int64(cfg.GOPN))},
		{"gopm", uint64(int64(cfg.GOPM))},
		{"search", uint64(int64(cfg.SearchRange))},
		{"halfpel", b},
	}, raw)
}
