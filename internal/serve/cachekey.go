package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"strconv"
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

// canonMagic versions the content address. Both tiers treat a keyed
// result as immutable (ImmutableCacheControl) and never revalidate it,
// so the key is the only thing that tells old bytes from new: bump
// canonMagic whenever the preimage layout changes or the codec's output
// for an unchanged input does. TestCanonMagicPinsOutputs fails when the
// offline codec's output moves under an unchanged canonMagic.
const canonMagic = "eclipse-serve-key/1\x00"

// ImmutableCacheControl is the Cache-Control of every keyed response, a
// 200 or a 304, on both tiers (RFC 8246): bytes under a content address
// never change, so no tier needs a freshness window or a revalidation
// for them.
const ImmutableCacheControl = "max-age=31536000, immutable"

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
// bitstream. Params.Key calls it for a decode.
func DecodeKey(stream []byte) CacheKey {
	return computeCacheKey(KindDecode, nil, stream)
}

// transcodeKey addresses a transcode response: the bitstream plus the
// target quantizer (GOP structure and dimensions are inherited from
// the stream itself, so they are already covered by the payload).
func transcodeKey(q int, stream []byte) CacheKey {
	return computeCacheKey(KindTranscode, []keyParam{{"q", uint64(int64(q))}}, stream)
}

// encodeKey addresses an encode response: the raw planes plus every
// codec parameter that shapes the bitstream.
func encodeKey(cfg media.CodecConfig, raw []byte) CacheKey {
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

// Params is one media request's parameters: its kind and what its query
// string sets. Kind.Path, ParseParams and Key are the one definition of
// a media kind's endpoint, parameters and content address. The backend
// serves and the gateway routes through them, so the two tiers accept,
// reject and address every request alike.
type Params struct {
	Kind Kind
	enc  media.CodecConfig // KindEncode: the codec configuration
	q    int               // KindTranscode: the target quantizer
}

// ParseParams parses the raw query string of a request for kind. A
// decode takes no parameter, so its query string is never parsed.
func ParseParams(kind Kind, rawQuery string) (Params, error) {
	p := Params{Kind: kind}
	var err error
	switch kind {
	case KindEncode:
		p.enc, err = encodeConfigFromQuery(parseQuery(rawQuery))
	case KindTranscode:
		p.q, err = transcodeQFromQuery(parseQuery(rawQuery))
	}
	return p, err
}

// parseQuery keeps what parses, as url.URL.Query does.
func parseQuery(raw string) url.Values {
	v, _ := url.ParseQuery(raw)
	return v
}

// Key is the content address of the request's response for body: the
// routing key, both cache tiers' key and the entity tag.
func (p Params) Key(body []byte) CacheKey {
	switch p.Kind {
	case KindEncode:
		return encodeKey(p.enc, body)
	case KindTranscode:
		return transcodeKey(p.q, body)
	}
	return DecodeKey(body)
}

// encodeConfigFromQuery parses the encode query parameters into a codec
// config. Unset parameters fall back to the codec defaults for the
// given size.
func encodeConfigFromQuery(q url.Values) (media.CodecConfig, error) {
	geti := func(key string, def int) (int, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("serve: bad %s=%q", key, v)
		}
		return n, nil
	}
	w, err := geti("w", 0)
	if err != nil {
		return media.CodecConfig{}, err
	}
	h, err := geti("h", 0)
	if err != nil {
		return media.CodecConfig{}, err
	}
	if w <= 0 || h <= 0 {
		return media.CodecConfig{}, fmt.Errorf("serve: encode requires w and h query parameters")
	}
	cfg := media.DefaultCodec(w, h)
	if cfg.Q, err = geti("q", cfg.Q); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.GOPN, err = geti("gopn", cfg.GOPN); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.GOPM, err = geti("gopm", cfg.GOPM); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.SearchRange, err = geti("search", cfg.SearchRange); err != nil {
		return media.CodecConfig{}, err
	}
	switch q.Get("halfpel") {
	case "", "0", "false":
	case "1", "true":
		cfg.HalfPel = true
	default:
		return media.CodecConfig{}, fmt.Errorf("serve: bad halfpel=%q", q.Get("halfpel"))
	}
	return cfg, nil
}

// transcodeQFromQuery parses transcode's required q parameter, the
// target quantizer.
func transcodeQFromQuery(q url.Values) (int, error) {
	v := q.Get("q")
	if v == "" {
		return 0, fmt.Errorf("serve: transcode requires the q query parameter")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: bad q=%q", v)
	}
	return n, nil
}
