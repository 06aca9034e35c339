package media

// The MC kernels as SSE2 loops (mc_amd64.s), one macroblock row per
// register; SSE2 is in the amd64 baseline, so there is no feature check.
// Each equals its Go body on every input, which the parity tests hold.
// Each reads its prediction as a view, row j at pred + j·pstride, and its
// wrapper's bounds checks are the last pixel of each view, the only ones
// the assembly needs.

// reconstructSSE2 is reconstructGo as PADDSW and PACKUSWB, writing row j
// at dst + j·stride. The widened prediction p (0…255) and the residual r
// (int16) are added with signed saturation, and PACKUSWB clamps the int16
// sum to 0…255, so the result is clampByte(p+r) for every r. The add must
// saturate: p+r reaches 32767+255, and a wrapping PADDW would turn that
// into a negative sum that packs to 0, where saturation keeps 32767, which
// packs to 255.
//
//go:noescape
func reconstructSSE2(dst *byte, stride int, pred *byte, pstride int, blocks *[BlocksPerMB]Block)

// reconstruct is the reconstruct kernel (see reconstructGo).
func reconstruct(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	_, _ = dst[15*stride+15], pred[15*pstride+15]
	reconstructSSE2(&dst[0], stride, &pred[0], pstride, blocks)
}

// residualSSE2 is residualGo as a widened PSUBW; every difference lies in
// −255…255, so the int16 lanes hold it exactly.
//
//go:noescape
func residualSSE2(cur *MBPixels, pred *byte, pstride int, blocks *[BlocksPerMB]Block)

// residual is the residual kernel (see residualGo).
func residual(cur *MBPixels, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	_ = pred[15*pstride+15]
	residualSSE2(cur, &pred[0], pstride, blocks)
}

// averageSSE2 is averageGo as PAVGB, which computes exactly (a+b+1)>>1
// per byte.
//
//go:noescape
func averageSSE2(dst *MBPixels, a *byte, astride int, b *byte, bstride int)

// average is the bi-predictive kernel (see averageGo).
func average(dst *MBPixels, a []byte, astride int, b []byte, bstride int) {
	_, _ = a[15*astride+15], b[15*bstride+15]
	averageSSE2(dst, &a[0], astride, &b[0], bstride)
}
