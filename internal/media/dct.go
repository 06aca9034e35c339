package media

import "math"

// 8×8 integer DCT/IDCT with 12-bit fixed-point basis tables.
//
// The forward and inverse transforms share one basis table, so the
// encoder's local reconstruction (which feeds reference frames) is
// bit-exact with the decoder's output — the property that keeps P- and
// B-frame prediction drift-free across the whole pipeline.
//
// On amd64 both run in one SSE2 kernel, dct2dSSE2 (dct_amd64.go), which
// hands a block back to the Go bodies below when its row pass leaves
// int16. The Go bodies, idctGo and fdctGo, are even/odd partial
// butterflies, bit-identical to the 8×8 matrix product over dctTab: int32
// arithmetic is a ring mod 2³², so c·t + c′·t = (c + c′)·t even when a sum
// wraps, and each fold is a symmetry of dctTab. They are the portable
// path, the kernel's parity oracle and its fallback.

// dctTab[u][x] = round( alpha(u)/2 * cos((2x+1)uπ/16) * 4096 ),
// alpha(0) = 1/sqrt2, alpha(u>0) = 1. Every row u obeys
// dctTab[u][7-x] = (-1)^u dctTab[u][x], and the even rows also obey
// dctTab[u][3-x] = (-1)^(u/2) dctTab[u][x].
// It is a variable initializer, not an init function, so that the
// kernel's tables built from it are initialized after it.
var dctTab = func() (tab [8][8]int32) {
	for u := 0; u < 8; u++ {
		alpha := 1.0
		if u == 0 {
			alpha = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			v := alpha / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
			tab[u][x] = int32(math.Round(v * 4096))
		}
	}
	return tab
}()

// Block is an 8×8 array of 16-bit samples or coefficients in row-major
// order, the unit of work of the DCT and RLSQ coprocessors.
type Block = [64]int16

const fixRound = 1 << 11 // rounding constant for the 12-bit fixed point

// fdctGo is FDCT as Go butterflies. Each pass is the matrix product
// t[u] = sum_x s[x]·dctTab[u][x], computed by fwd8 in 24 multiplies
// instead of 64.
func fdctGo(src, dst *Block) {
	var tmp [64]int32
	// rows: tmp[y][u] = sum_x src[y][x] * tab[u][x]
	for y := 0; y < 8; y++ {
		s := (*[8]int16)(src[y*8:])
		t0, t1, t2, t3, t4, t5, t6, t7 := fwd8(int32(s[0]), int32(s[1]), int32(s[2]), int32(s[3]),
			int32(s[4]), int32(s[5]), int32(s[6]), int32(s[7]))
		o := (*[8]int32)(tmp[y*8:])
		o[0], o[1], o[2], o[3] = (t0+fixRound)>>12, (t1+fixRound)>>12, (t2+fixRound)>>12, (t3+fixRound)>>12
		o[4], o[5], o[6], o[7] = (t4+fixRound)>>12, (t5+fixRound)>>12, (t6+fixRound)>>12, (t7+fixRound)>>12
	}
	// cols: dst[v][u] = sum_y tmp[y][u] * tab[v][y]
	for u := 0; u < 8; u++ {
		t0, t1, t2, t3, t4, t5, t6, t7 := fwd8(tmp[u], tmp[8+u], tmp[16+u], tmp[24+u],
			tmp[32+u], tmp[40+u], tmp[48+u], tmp[56+u])
		dst[u], dst[8+u], dst[16+u], dst[24+u] = clamp16((t0+fixRound)>>12), clamp16((t1+fixRound)>>12),
			clamp16((t2+fixRound)>>12), clamp16((t3+fixRound)>>12)
		dst[32+u], dst[40+u], dst[48+u], dst[56+u] = clamp16((t4+fixRound)>>12), clamp16((t5+fixRound)>>12),
			clamp16((t6+fixRound)>>12), clamp16((t7+fixRound)>>12)
	}
}

// fwd8 returns t[u] = sum_x s[x]·dctTab[u][x] for u = 0..7. The odd rows
// see only the differences o[x] = s[x] - s[7-x], the even rows the sums
// e[x], which fold once more, e[x] ± e[3-x], into ee (rows 0, 4) and eo
// (rows 2, 6).
func fwd8(s0, s1, s2, s3, s4, s5, s6, s7 int32) (t0, t1, t2, t3, t4, t5, t6, t7 int32) {
	e0, e1, e2, e3 := s0+s7, s1+s6, s2+s5, s3+s4
	o0, o1, o2, o3 := s0-s7, s1-s6, s2-s5, s3-s4
	ee0, ee1, eo0, eo1 := e0+e3, e1+e2, e0-e3, e1-e2
	t0 = ee0*dctTab[0][0] + ee1*dctTab[0][1]
	t4 = ee0*dctTab[4][0] + ee1*dctTab[4][1]
	t2 = eo0*dctTab[2][0] + eo1*dctTab[2][1]
	t6 = eo0*dctTab[6][0] + eo1*dctTab[6][1]
	t1 = o0*dctTab[1][0] + o1*dctTab[1][1] + o2*dctTab[1][2] + o3*dctTab[1][3]
	t3 = o0*dctTab[3][0] + o1*dctTab[3][1] + o2*dctTab[3][2] + o3*dctTab[3][3]
	t5 = o0*dctTab[5][0] + o1*dctTab[5][1] + o2*dctTab[5][2] + o3*dctTab[5][3]
	t7 = o0*dctTab[7][0] + o1*dctTab[7][1] + o2*dctTab[7][2] + o3*dctTab[7][3]
	return
}

// idctGo is IDCT as Go butterflies. Each pass is the matrix product
// s[x] = sum_u c[u]·dctTab[u][x], computed by inv8 in 24 multiplies
// instead of 64.
// There is no zero-row skip: coded blocks switch between zero and nonzero
// rows about three times each, and those mispredicted branches cost more
// than the rows they save (DESIGN.md, "Transform kernels").
func idctGo(src, dst *Block) {
	var tmp [64]int32
	// rows: tmp[v][x] = sum_u src[v][u] * tab[u][x]
	for v := 0; v < 8; v++ {
		c := (*[8]int16)(src[v*8:])
		s0, s1, s2, s3, s4, s5, s6, s7 := inv8(int32(c[0]), int32(c[1]), int32(c[2]), int32(c[3]),
			int32(c[4]), int32(c[5]), int32(c[6]), int32(c[7]))
		o := (*[8]int32)(tmp[v*8:])
		o[0], o[1], o[2], o[3] = (s0+fixRound)>>12, (s1+fixRound)>>12, (s2+fixRound)>>12, (s3+fixRound)>>12
		o[4], o[5], o[6], o[7] = (s4+fixRound)>>12, (s5+fixRound)>>12, (s6+fixRound)>>12, (s7+fixRound)>>12
	}
	// cols: dst[y][x] = sum_v tmp[v][x] * tab[v][y]
	for x := 0; x < 8; x++ {
		s0, s1, s2, s3, s4, s5, s6, s7 := inv8(tmp[x], tmp[8+x], tmp[16+x], tmp[24+x],
			tmp[32+x], tmp[40+x], tmp[48+x], tmp[56+x])
		dst[x], dst[8+x], dst[16+x], dst[24+x] = clamp16((s0+fixRound)>>12), clamp16((s1+fixRound)>>12),
			clamp16((s2+fixRound)>>12), clamp16((s3+fixRound)>>12)
		dst[32+x], dst[40+x], dst[48+x], dst[56+x] = clamp16((s4+fixRound)>>12), clamp16((s5+fixRound)>>12),
			clamp16((s6+fixRound)>>12), clamp16((s7+fixRound)>>12)
	}
}

// inv8 returns s[x] = sum_u c[u]·dctTab[u][x] for x = 0..7: the odd rows
// give o[x], added to the even part e[x] at x and subtracted at 7-x, and
// e folds once more, e[x] = ee[x] + eo[x] and e[3-x] = ee[x] - eo[x], with
// ee from rows 0 and 4 and eo from rows 2 and 6.
func inv8(c0, c1, c2, c3, c4, c5, c6, c7 int32) (s0, s1, s2, s3, s4, s5, s6, s7 int32) {
	o0 := c1*dctTab[1][0] + c3*dctTab[3][0] + c5*dctTab[5][0] + c7*dctTab[7][0]
	o1 := c1*dctTab[1][1] + c3*dctTab[3][1] + c5*dctTab[5][1] + c7*dctTab[7][1]
	o2 := c1*dctTab[1][2] + c3*dctTab[3][2] + c5*dctTab[5][2] + c7*dctTab[7][2]
	o3 := c1*dctTab[1][3] + c3*dctTab[3][3] + c5*dctTab[5][3] + c7*dctTab[7][3]
	ee0, ee1 := c0*dctTab[0][0]+c4*dctTab[4][0], c0*dctTab[0][1]+c4*dctTab[4][1]
	eo0, eo1 := c2*dctTab[2][0]+c6*dctTab[6][0], c2*dctTab[2][1]+c6*dctTab[6][1]
	e0, e1, e2, e3 := ee0+eo0, ee1+eo1, ee1-eo1, ee0-eo0
	return e0 + o0, e1 + o1, e2 + o2, e3 + o3, e3 - o3, e2 - o2, e1 - o1, e0 - o0
}

func clamp16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// zigzag[i] gives the row-major index of the i-th coefficient in zigzag
// scan order (the standard 8×8 zigzag of MPEG/JPEG).
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// unzigzag is the inverse permutation: unzigzag[rowMajor] = zigzag index.
var unzigzag [64]int

func init() {
	for i, p := range zigzag {
		unzigzag[p] = i
	}
}

// ZigzagScan permutes a row-major coefficient block into zigzag order.
func ZigzagScan(src, dst *Block) {
	for i, p := range zigzag {
		dst[i] = src[p]
	}
}

// InverseZigzag permutes a zigzag-ordered block back to row-major order
// (the inverse-scan step of the RLSQ coprocessor).
func InverseZigzag(src, dst *Block) {
	for i, p := range zigzag {
		dst[p] = src[i]
	}
}

// QuantizeInter divides coefficients by 2q with truncation toward zero
// (a deadzone quantizer, as MPEG-2 uses for non-intra blocks). The
// deadzone keeps small prediction residuals — quantization-error
// oscillation and sensor noise — from producing coefficients, which is
// what makes skip macroblocks and cheap B frames possible.
func QuantizeInter(src, dst *Block, q int) {
	d := int32(2 * q)
	for i, c := range src {
		lvl := int32(c) / d
		if lvl > MaxLevel {
			lvl = MaxLevel
		}
		if lvl < -MaxLevel {
			lvl = -MaxLevel
		}
		dst[i] = int16(lvl)
	}
}

// Quantize divides coefficients by 2q with symmetric rounding (used for
// intra blocks) and clamps levels to the escape-codable range. q must be
// ≥ 1.
func Quantize(src, dst *Block, q int) {
	d := int32(2 * q)
	half := d / 2
	for i, c := range src {
		v := int32(c)
		var lvl int32
		if v >= 0 {
			lvl = (v + half) / d
		} else {
			lvl = -((-v + half) / d)
		}
		if lvl > MaxLevel {
			lvl = MaxLevel
		}
		if lvl < -MaxLevel {
			lvl = -MaxLevel
		}
		dst[i] = int16(lvl)
	}
}

// Dequantize multiplies levels by 2q (the inverse-quantization step of
// the RLSQ coprocessor).
func Dequantize(src, dst *Block, q int) {
	d := int32(2 * q)
	for i, l := range src {
		dst[i] = clamp16(int32(l) * d)
	}
}

// NonzeroCount returns the number of nonzero coefficients in the block, a
// proxy for entropy-coding work used in cost models and tests.
func NonzeroCount(b *Block) int {
	n := 0
	for _, c := range b {
		if c != 0 {
			n++
		}
	}
	return n
}
