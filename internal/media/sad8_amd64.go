package media

// sad8SSE2 is sad8Go as a PSADBW loop over eight candidates at once
// (sad8_amd64.s); ref points at the first pixel of candidate 0. It stores
// the sums and leaves the minimum to sad8.
//
//go:noescape
func sad8SSE2(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)

// sad8 is the eight-candidate kernel (see sad8Go for the contract). The
// index below is the last pixel candidate 7 reads, the one bounds check
// the assembly needs. Every sum lies in [0, 65 280], so clamping earlyOut
// to [−1, 2¹⁶] changes no comparison and lets the assembly compare int32.
func sad8(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
	_ = ref[15*stride+22]
	sad8SSE2(cur, &ref[0], stride, min(max(earlyOut, -1), 1<<16), out)
	m := out[0]
	for _, s := range out[1:] {
		m = min(m, s)
	}
	return m
}
