package media

// The MC kernels as SSE2 loops (mc_amd64.s), one macroblock row per
// register; SSE2 is in the amd64 baseline, so there is no feature check.
// Each equals its Go body on every input, which the parity tests hold.

// reconstructSSE2 is reconstructGo as PADDSW and PACKUSWB, writing row j
// at dst + j·stride. The widened prediction p (0…255) and the residual r
// (int16) are added with signed saturation, and PACKUSWB clamps the int16
// sum to 0…255, so the result is clampByte(p+r) for every r. The add must
// saturate: p+r reaches 32767+255, and a wrapping PADDW would turn that
// into a negative sum that packs to 0, where saturation keeps 32767, which
// packs to 255.
//
//go:noescape
func reconstructSSE2(dst *byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block)

// reconstruct is the reconstruct kernel (see reconstructGo for the
// contract). The index below is the last pixel it writes, the one bounds
// check the assembly needs.
func reconstruct(dst []byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block) {
	_ = dst[15*stride+15]
	reconstructSSE2(&dst[0], stride, pred, blocks)
}

// residual is residualGo as a widened PSUBW; every difference lies in
// −255…255, so the int16 lanes hold it exactly.
//
//go:noescape
func residual(cur, pred *MBPixels, blocks *[BlocksPerMB]Block)

// average is averageGo as PAVGB, which computes exactly (a+b+1)>>1 per
// byte. dst may be a or b.
//
//go:noescape
func average(dst, a, b *MBPixels)
