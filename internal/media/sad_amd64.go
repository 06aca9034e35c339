package media

// sadRowsSSE2 is sadRowsSWAR as a 16-row PSADBW loop (sad_amd64.s). ref
// points at the first pixel of a block whose row j starts at ref+j·stride.
// SSE2 is in the amd64 baseline, so there is no feature check.
//
//go:noescape
func sadRowsSSE2(cur *MBPixels, ref *byte, stride, earlyOut int) int

// sadRows is the one absolute-difference kernel (see sadRowsSWAR for the
// contract). The index below is the last pixel the block reads, the one
// bounds check the assembly needs.
func sadRows(cur *MBPixels, ref []byte, stride, earlyOut int) int {
	_ = ref[15*stride+15]
	return sadRowsSSE2(cur, &ref[0], stride, earlyOut)
}
