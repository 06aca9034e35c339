package media

// dct2dSSE2 runs one whole 8×8 transform of src into dst as two passes of
// PMADDWD dot products over the constant table m (dct_amd64.s). Each pass
// maps row r of its input to out[j][r] = Σ_k in[r][k]·M[k][j], rounded by
// (sum + 2048) >> 12 and packed to int16, so its output is transposed and
// the second pass reads the first's output as rows: M = dctTab gives
// IDCT, M = dctTabᵀ gives FDCT. It returns false, and leaves dst alone,
// when a row-pass output lies outside int16. SSE2 is in the amd64
// baseline, so there is no feature check.
//
// It is bit-identical to idctGo and fdctGo on every block it accepts.
// PMADDWD adds two int16·int16 products into the exact int32 sum mod 2³²,
// and Go's int32 is the same ring, in which the butterflies already equal
// the matrix product (DESIGN.md, "Why it is exact"). The row pass
// multiplies int16 inputs by int16 table entries in both directions; the
// column pass does the same once every row-pass output fits int16, which
// is what the decline test checks. PSRAD is the same arithmetic shift, and
// the column pass's PACKSSDW is clamp16.
//
//go:noescape
func dct2dSSE2(src, dst *Block, m *dctPassTab) bool

// dct2dAVX2 is dct2dSSE2 on all eight rows at once, one VPMADDWD where
// dct2dSSE2 has two PMADDWD (dct_amd64.s), with the same outputs and the
// same verdict.
//
//go:noescape
func dct2dAVX2(src, dst *Block, m *dctPassTab) bool

// dct2d runs the transform of table m on the body useAVX2 picks.
func dct2d(src, dst *Block, m *dctPassTab) bool {
	if useAVX2 {
		return dct2dAVX2(src, dst, m)
	}
	return dct2dSSE2(src, dst, m)
}

// dctPassTab is one transform's table in PMADDWD operand form: m[j][p]
// holds four copies of the pair (M[2p][j], M[2p+1][j]), the weights of
// coefficients 2p and 2p+1 in output j.
type dctPassTab [8][4][8]int16

// idctPass (M = dctTab) and fdctPass (M = dctTabᵀ) are the kernel's two
// constant tables.
var idctPass, fdctPass = newDCTPass(false), newDCTPass(true)

func newDCTPass(forward bool) (m dctPassTab) {
	for j := range m {
		for p := range m[j] {
			a, b := dctTab[2*p][j], dctTab[2*p+1][j]
			if forward {
				a, b = dctTab[j][2*p], dctTab[j][2*p+1]
			}
			for i := 0; i < 8; i += 2 {
				m[j][p][i], m[j][p][i+1] = int16(a), int16(b)
			}
		}
	}
	return m
}

// FDCT computes the forward 8×8 DCT of src into dst (row-major). Inputs
// are expected in roughly [-256, 255] (pixel residuals or level-shifted
// intra pixels); outputs fit comfortably in int16. The kernel (dct2d)
// runs it, and fdctGo takes the blocks the kernel declines.
func FDCT(src, dst *Block) {
	if !dct2d(src, dst, &fdctPass) {
		fdctGo(src, dst)
	}
}

// IDCT computes the inverse 8×8 DCT of src into dst (row-major). It is
// the deterministic inverse used by both the encoder's reconstruction
// loop and the decoder, so the two stay bit-exact. The kernel (dct2d)
// runs it, and idctGo takes the blocks the kernel declines.
func IDCT(src, dst *Block) {
	if !dct2d(src, dst, &idctPass) {
		idctGo(src, dst)
	}
}
