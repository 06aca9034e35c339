package media

// sad8SSE2 is sad8Go as a PSADBW loop over eight candidates at once
// (sad8_amd64.s); ref points at the first pixel of candidate 0. It stores
// the sums and leaves the minimum to sad8.
//
//go:noescape
func sad8SSE2(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)

// sad8AVX2 is sad8SSE2 scoring rows j and j+1 with one VPSADBW
// (sad8_amd64.s), with the same sums and exits.
//
//go:noescape
func sad8AVX2(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)

// hasAVX2 is the CPUID and XGETBV probe for AVX2 (sad8_amd64.s).
func hasAVX2() bool

// useAVX2 picks the bodies of sad8 and dct2d once: sad8AVX2 and
// dct2dAVX2 where the probe finds AVX2, else sad8SSE2 and dct2dSSE2, the
// amd64 baseline.
var useAVX2 = hasAVX2()

// sad8 is the eight-candidate kernel (see sad8Go for the contract). The
// index below is the last pixel candidate 7 reads, the one bounds check
// the assembly needs. Every sum lies in [0, 65 280], so clamping earlyOut
// to [−1, 2¹⁶] changes no comparison and lets the assembly compare int32.
func sad8(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
	_ = ref[15*stride+22]
	if e := min(max(earlyOut, -1), 1<<16); useAVX2 {
		sad8AVX2(cur, &ref[0], stride, e, out)
	} else {
		sad8SSE2(cur, &ref[0], stride, e, out)
	}
	m := out[0]
	for _, s := range out[1:] {
		m = min(m, s)
	}
	return m
}
