package media

import "encoding/binary"

// Motion estimation and compensation on 16×16 macroblocks with full-pel
// vectors. These are the kernels of the MC/ME coprocessor; prediction
// uses edge-clamped reference access so vectors may point outside the
// picture.

// MV is a full-pel motion vector.
type MV struct {
	X, Y int16
}

// PredMode selects how a macroblock is predicted.
type PredMode uint8

const (
	PredIntra PredMode = iota // no prediction: intra coded
	PredFwd                   // forward prediction (P and B frames)
	PredBwd                   // backward prediction (B frames only)
	PredBi                    // averaged bi-directional prediction (B frames)
	PredSkip                  // copy of the forward reference at zero motion
)

// String names the prediction mode.
func (m PredMode) String() string {
	switch m {
	case PredIntra:
		return "intra"
	case PredFwd:
		return "fwd"
	case PredBwd:
		return "bwd"
	case PredBi:
		return "bi"
	case PredSkip:
		return "skip"
	}
	return "?"
}

// MBPixels is a 16×16 block of samples.
type MBPixels = [MBSize * MBSize]byte

// SWAR constants: a uint64 holds four 16-bit lanes, one pixel (0..255) in
// the low byte of each.
const (
	laneLo  = 0x00FF00FF00FF00FF // low byte of every lane
	laneBit = 0x0100010001000100 // bit 8 of every lane
	laneOne = 0x0001000100010001 // bit 0 of every lane
)

// absDiff4 returns |a−b| in each 16-bit lane, for lanes holding 0..255.
// (a|laneBit)−b is 256+a−b per lane, in 1..511, so no borrow crosses a
// lane and bit 8 says a ≥ b: then the difference is x−256 = x^0x100,
// otherwise 256−x = (x^0xFF)+1.
func absDiff4(a, b uint64) uint64 {
	x := (a | laneBit) - b
	neg := ^x >> 8 & laneOne
	return (x ^ (laneBit - neg)) + neg
}

// sadRowsSWAR is the portable body of sadRows, the one absolute-difference
// kernel: the SAD of cur against the 16×16 block whose rows start at
// ref[0], ref[stride], … — another macroblock (stride MBSize) or a position
// in a search window. After each row the running sum is compared with
// earlyOut and returned once it exceeds it; the (possibly partial) sums
// returned are those of the scalar row loop. sadRows runs this loop off
// amd64 and PSADBW on it (sad_amd64.s); the parity tests hold the two to
// the same values.
//
// Each row is two 8-pixel words, split into even and odd bytes and
// accumulated in four 16-bit lanes: a lane gains at most 4·255 per row,
// 16 320 < 2¹⁶ over the block, and the lanes total at most 65 280 < 2¹⁶,
// so one multiply folds them into the top lane exactly.
func sadRowsSWAR(cur *MBPixels, ref []byte, stride, earlyOut int) int {
	var acc uint64
	for j := 0; j < MBSize; j++ {
		c := cur[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
		r := ref[j*stride : j*stride+MBSize : j*stride+MBSize]
		c0, c1 := binary.LittleEndian.Uint64(c[:8]), binary.LittleEndian.Uint64(c[8:])
		r0, r1 := binary.LittleEndian.Uint64(r[:8]), binary.LittleEndian.Uint64(r[8:])
		acc += absDiff4(c0&laneLo, r0&laneLo) + absDiff4(c0>>8&laneLo, r0>>8&laneLo) +
			absDiff4(c1&laneLo, r1&laneLo) + absDiff4(c1>>8&laneLo, r1>>8&laneLo)
		if sum := int(acc * laneOne >> 48); sum > earlyOut {
			return sum
		}
	}
	return int(acc * laneOne >> 48)
}

// sad8Go is the portable body of sad8, the search grid's kernel: it scores
// the eight horizontally adjacent 16×16 blocks at ref[k:], k = 0…7 (rows
// at stride), against cur, row by row with eight SWAR accumulators as in
// sadRowsSWAR, loading each cur row once. After rows 4, 8 and 12 it stops
// if every partial sum exceeds earlyOut. It stores the eight sums in out —
// full SADs, or the partial sums of the row it stopped at — and returns
// their minimum. sad8 runs this loop off amd64 and an SSE2 or AVX2
// PSADBW kernel on it (sad8_amd64.s); the parity tests hold each body to
// the same values.
func sad8Go(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
	var acc [8]uint64
	m := int32(0)
	for j := 0; j < MBSize; j++ {
		c := cur[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
		r := ref[j*stride : j*stride+MBSize+7 : j*stride+MBSize+7]
		c0, c1 := binary.LittleEndian.Uint64(c[:8]), binary.LittleEndian.Uint64(c[8:])
		ce0, co0, ce1, co1 := c0&laneLo, c0>>8&laneLo, c1&laneLo, c1>>8&laneLo
		for k := range acc {
			r0, r1 := binary.LittleEndian.Uint64(r[k:]), binary.LittleEndian.Uint64(r[k+8:])
			acc[k] += absDiff4(ce0, r0&laneLo) + absDiff4(co0, r0>>8&laneLo) +
				absDiff4(ce1, r1&laneLo) + absDiff4(co1, r1>>8&laneLo)
		}
		if j%4 != 3 {
			continue
		}
		for k, a := range acc {
			out[k] = int32(a * laneOne >> 48)
		}
		m = out[0]
		for _, s := range out[1:] {
			m = min(m, s)
		}
		if int(m) > earlyOut {
			break
		}
	}
	return m
}

// SAD returns the sum of absolute differences between cur and the 16×16
// region of ref at pixel position (x, y) displaced by mv, with edge
// clamping. earlyOut stops accumulating after the first row at which the
// sum exceeds the given bound (pass a large bound to disable); the return
// value is then a partial sum > earlyOut.
func SAD(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int {
	rx, ry := x+int(mv.X), y+int(mv.Y)
	if rx >= 0 && ry >= 0 && rx+MBSize <= ref.W && ry+MBSize <= ref.H {
		return sadRows(cur, ref.Pix[ry*ref.W+rx:], ref.W, earlyOut)
	}
	var blk MBPixels
	fetch(&blk, ref, rx, ry)
	return sadRows(cur, blk[:], MBSize, earlyOut)
}

// SearchResult reports the outcome of a motion search.
type SearchResult struct {
	MV  MV
	SAD int
	Ops int // candidate positions searched (cost-model input)
}

const (
	// maxSearchRange is the largest search radius CodecConfig accepts.
	maxSearchRange = 63
	// maxWindow is the edge of the largest search window.
	maxWindow = MBSize + 2*maxSearchRange
)

// MotionSearch performs a full search over ±r full-pel displacements
// (0 ≤ r ≤ 63) for the best match of cur (the macroblock at pixel position
// (x, y)) in ref. The zero vector is evaluated first and wins ties, which
// biases P-frames toward cheap skip macroblocks exactly as real encoders
// do; the other candidates are visited in raster order and replace the
// best only when strictly better. Ops is the (2r+1)² candidates of the
// full search — what the ME coprocessor evaluates in hardware — not the
// number of SADs this software kernel ran to the end (see searchWindow).
func MotionSearch(cur *MBPixels, ref *Frame, x, y, r int) SearchResult {
	if r < 0 || r > maxSearchRange {
		panic("media: motion search range outside what CodecConfig accepts")
	}
	// Candidates are evaluated on the (16+2r)² window around the
	// macroblock: the frame's own pixels when it lies inside the frame,
	// an edge-clamped copy otherwise.
	wx, wy, n := x-r, y-r, MBSize+2*r
	if wx >= 0 && wy >= 0 && wx+n <= ref.W && wy+n <= ref.H {
		return searchWindow(cur, ref.Pix[wy*ref.W+wx:], ref.W, r)
	}
	return searchClamped(cur, ref, wx, wy, r)
}

// searchClamped searches an edge-clamped copy of a window that reaches
// outside the frame. It is a function of its own so that the 20 164-byte
// copy is zeroed and kept on the stack only for border macroblocks. The
// encoder never comes here: its reference planes carry a border of at
// least r (encodeFrame). Only callers that search an unpadded frame do,
// the copro encode model and direct MotionSearch callers such as the
// benchmark rig's media.k_msearch_ns kernel timing.
//
//go:noinline
func searchClamped(cur *MBPixels, ref *Frame, wx, wy, r int) SearchResult {
	var win [maxWindow * maxWindow]byte
	n := MBSize + 2*r
	copyClamped(win[:n*n], n, ref, wx, wy)
	return searchWindow(cur, win[:n*n], n, r)
}

// searchWindow is the full search over a (16+2r)² window with the given
// row stride; the candidate with vector (dx−r, dy−r) is the block at
// window position (dx, dy). Each row of n = 2r+1 candidates is scored in
// groups of eight by sad8, starting at dx = 0, 8, 16, … and the last one
// moved left to end at the row's end (dx = n−8), so it may score up to
// seven candidates a second time. Every candidate is compared with best
// in raster order with a strict <, and best starts at the zero vector's
// SAD, so the result is the raster loop's for three reasons. A group
// whose minimum is ≥ best holds no strictly better candidate; that covers
// an exit after row 4, 8 or 12, where all eight partial sums — lower
// bounds of the SADs — are > best. A group that is not skipped ran to the
// end, so its sums are full SADs. And the zero vector, or a candidate a
// group scores twice, is already ≥ best when it comes round again, so the
// strict test cannot pick it. For n < 8 a group would reach outside the
// window, and the candidates are scored one at a time with sadRows under
// the same rule. The eight sums are the whole scratch, 32 bytes.
func searchWindow(cur *MBPixels, win []byte, stride, r int) SearchResult {
	n := 2*r + 1
	best := SearchResult{SAD: sadRows(cur, win[r*stride+r:], stride, 1<<30), Ops: n * n}
	if n < 8 {
		for dy := 0; dy < n; dy++ {
			for dx := 0; dx < n; dx++ {
				if s := sadRows(cur, win[dy*stride+dx:], stride, best.SAD); s < best.SAD {
					best.SAD, best.MV = s, MV{int16(dx - r), int16(dy - r)}
				}
			}
		}
		return best
	}
	var sums [8]int32
	for dy := 0; dy < n; dy++ {
		row := win[dy*stride:]
		for g := 0; g < n; g += 8 {
			dx0 := min(g, n-8)
			if int(sad8(cur, row[dx0:], stride, best.SAD, &sums)) >= best.SAD {
				continue
			}
			for k, s := range sums {
				if int(s) < best.SAD {
					best.SAD, best.MV = int(s), MV{int16(dx0 + k - r), int16(dy - r)}
				}
			}
		}
	}
	return best
}

// Predict fills pred with the motion-compensated prediction for the
// macroblock at pixel position (x, y): fwd/bwd single prediction or their
// rounding average for bi-directional mode. For PredSkip the forward
// reference at zero motion is used. PredIntra fills a mid-gray constant
// (128), so that "prediction + residual" is uniform across modes.
// Motion vectors are in full-pel units; see PredictHP for half-pel.
func Predict(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV) {
	PredictHP(pred, mode, fwd, bwd, x, y, fmv, bmv, false)
}

// PredictHP is Predict with selectable motion-vector precision: with
// halfPel set, vector units are half pixels and fractional positions are
// bilinearly interpolated (the MPEG-2 MC mode). It is predView, then a
// copy of the view unless it already is pred.
func PredictHP(pred *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool) {
	pix, stride := predView(pred, mode, fwd, bwd, x, y, fmv, bmv, halfPel)
	copyView(pred, pix, stride)
}

// predView returns the prediction of PredictHP as a view whose row j
// starts at pix[j·stride], read in place where it can be: a full-pel
// block inside the frame is the reference frame's own pixels (stride W)
// and intra is midGray (stride MBSize). A block that reaches outside
// the frame or sits at a half-pel position, and the bi-directional
// average, are written to scratch. The kernels only read a view.
func predView(scratch *MBPixels, mode PredMode, fwd, bwd *Frame, x, y int, fmv, bmv MV, halfPel bool) (pix []byte, stride int) {
	switch mode {
	case PredIntra:
		return midGray[:], MBSize
	case PredFwd:
		return refView(scratch, fwd, x, y, fmv, halfPel)
	case PredSkip:
		return refView(scratch, fwd, x, y, MV{}, false)
	case PredBwd:
		return refView(scratch, bwd, x, y, bmv, halfPel)
	case PredBi:
		var b MBPixels
		fp, fs := refView(scratch, fwd, x, y, fmv, halfPel)
		bp, bs := refView(&b, bwd, x, y, bmv, halfPel)
		average(scratch, fp, fs, bp, bs)
	}
	return scratch[:], MBSize
}

// refView is predView for one reference and vector: ref's pixels in
// place, or an edge-clamped or interpolated copy in scratch.
func refView(scratch *MBPixels, ref *Frame, x, y int, mv MV, halfPel bool) ([]byte, int) {
	rx, ry := x+int(mv.X), y+int(mv.Y)
	if halfPel {
		hx, hy := 2*x+int(mv.X), 2*y+int(mv.Y)
		if (hx|hy)&1 != 0 {
			fetchHalf(scratch, ref, hx, hy)
			return scratch[:], MBSize
		}
		rx, ry = hx>>1, hy>>1
	}
	if rx >= 0 && ry >= 0 && rx+MBSize <= ref.W && ry+MBSize <= ref.H {
		return ref.Pix[ry*ref.W+rx:], ref.W
	}
	copyClamped(scratch[:], MBSize, ref, rx, ry)
	return scratch[:], MBSize
}

// copyView copies the view whose row j starts at pix[j·stride] into dst,
// a row as one 16-byte move, unless the view is dst itself.
func copyView(dst *MBPixels, pix []byte, stride int) {
	if &pix[0] == &dst[0] {
		return
	}
	for j := 0; j < MBSize; j++ {
		*(*[MBSize]byte)(dst[j*MBSize:]) = *(*[MBSize]byte)(pix[j*stride:])
	}
}

// midGray is the intra prediction, every sample 128.
var midGray = func() (m MBPixels) {
	for i := range m {
		m[i] = 128
	}
	return m
}()

// averageGo is the portable body of average, the bi-predictive kernel:
// dst = (a+b+1)>>1 per sample, row j of a at a[j·astride] and of b at
// b[j·bstride]. dst may be a or b at stride MBSize.
func averageGo(dst *MBPixels, a []byte, astride int, b []byte, bstride int) {
	for j := 0; j < MBSize; j++ {
		ar := a[j*astride : j*astride+MBSize : j*astride+MBSize]
		br := b[j*bstride : j*bstride+MBSize : j*bstride+MBSize]
		d := dst[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
		for i := range d {
			d[i] = byte((int(ar[i]) + int(br[i]) + 1) >> 1)
		}
	}
}

// RefineHalfPel improves a full-pel motion vector by evaluating the eight
// surrounding half-pel candidates; it returns the best vector in half-pel
// units, its SAD, and the number of candidates evaluated.
func RefineHalfPel(cur *MBPixels, ref *Frame, x, y int, full MV, fullSAD int) (MV, int, int) {
	best := MV{full.X * 2, full.Y * 2}
	bestSAD := fullSAD
	ops := 0
	var pred MBPixels
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			cand := MV{full.X*2 + int16(dx), full.Y*2 + int16(dy)}
			fetchHalf(&pred, ref, 2*x+int(cand.X), 2*y+int(cand.Y))
			ops++
			if sad := sadRows(cur, pred[:], MBSize, bestSAD); sad < bestSAD {
				bestSAD, best = sad, cand
			}
		}
	}
	return best, bestSAD, ops
}

// fetchHalf copies a 16×16 region at half-pel position (hx, hy) — i.e.
// pixel position (hx/2, hy/2) with bilinear interpolation at fractional
// positions — with edge clamping. Rounding follows the MPEG convention:
// (a+b+1)/2 for one fractional axis, (a+b+c+d+2)/4 for both.
func fetchHalf(dst *MBPixels, ref *Frame, hx, hy int) {
	ix, iy := hx>>1, hy>>1
	fx, fy := hx&1, hy&1
	if fx == 0 && fy == 0 {
		copyClamped(dst[:], MBSize, ref, ix, iy)
		return
	}
	// Interior fast paths: when the (MBSize+1)×(MBSize+1) interpolation
	// support is fully inside the frame, every At() would hit the direct
	// case, so the clamping accessor and the per-pixel fractional switch
	// can be hoisted out of the loops. Identical arithmetic either way.
	if ix >= 0 && iy >= 0 && ix+MBSize+1 <= ref.W && iy+MBSize+1 <= ref.H {
		w := ref.W
		base := iy*w + ix
		switch {
		case fx == 1 && fy == 0:
			for j := 0; j < MBSize; j++ {
				row := ref.Pix[base : base+MBSize+1 : base+MBSize+1]
				d := dst[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
				for i := 0; i < MBSize; i++ {
					d[i] = byte((int(row[i]) + int(row[i+1]) + 1) / 2)
				}
				base += w
			}
		case fx == 0 && fy == 1:
			for j := 0; j < MBSize; j++ {
				row := ref.Pix[base : base+MBSize : base+MBSize]
				below := ref.Pix[base+w : base+w+MBSize : base+w+MBSize]
				d := dst[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
				for i := 0; i < MBSize; i++ {
					d[i] = byte((int(row[i]) + int(below[i]) + 1) / 2)
				}
				base += w
			}
		default:
			for j := 0; j < MBSize; j++ {
				row := ref.Pix[base : base+MBSize+1 : base+MBSize+1]
				below := ref.Pix[base+w : base+w+MBSize+1 : base+w+MBSize+1]
				d := dst[j*MBSize : j*MBSize+MBSize : j*MBSize+MBSize]
				for i := 0; i < MBSize; i++ {
					d[i] = byte((int(row[i]) + int(row[i+1]) + int(below[i]) + int(below[i+1]) + 2) / 4)
				}
				base += w
			}
		}
		return
	}
	for j := 0; j < MBSize; j++ {
		for i := 0; i < MBSize; i++ {
			a := int(ref.At(ix+i, iy+j))
			switch {
			case fx == 1 && fy == 0:
				b := int(ref.At(ix+i+1, iy+j))
				dst[j*MBSize+i] = byte((a + b + 1) / 2)
			case fx == 0 && fy == 1:
				b := int(ref.At(ix+i, iy+j+1))
				dst[j*MBSize+i] = byte((a + b + 1) / 2)
			default:
				b := int(ref.At(ix+i+1, iy+j))
				c := int(ref.At(ix+i, iy+j+1))
				d := int(ref.At(ix+i+1, iy+j+1))
				dst[j*MBSize+i] = byte((a + b + c + d + 2) / 4)
			}
		}
	}
}

// fetch copies a 16×16 region at pixel position (x, y) with edge clamping.
func fetch(dst *MBPixels, ref *Frame, x, y int) {
	pix, stride := refView(dst, ref, x, y, MV{}, false)
	copyView(dst, pix, stride)
}

// copyClamped fills dst with the n×n region of ref at (x, y), edge
// clamped as Frame.At clamps, a row at a time: each row's source row is
// clamped once, columns left of the frame repeat its first pixel, the
// in-frame columns [i0, i1) — none when the region lies wholly left or
// right of the frame — are copied, and the rest repeat its last pixel.
func copyClamped(dst []byte, n int, ref *Frame, x, y int) {
	i0, i1 := min(max(-x, 0), n), max(min(ref.W-x, n), 0)
	for j := 0; j < n; j++ {
		src := ref.Pix[min(max(y+j, 0), ref.H-1)*ref.W:][:ref.W]
		d := dst[j*n:][:n]
		for i := 0; i < i0; i++ {
			d[i] = src[0]
		}
		if i0 < i1 {
			copy(d[i0:i1], src[x+i0:])
		}
		for i := i1; i < n; i++ {
			d[i] = src[ref.W-1]
		}
	}
}

// Residual computes cur − pred into four 8×8 blocks in macroblock block
// order (top-left, top-right, bottom-left, bottom-right).
func Residual(cur, pred *MBPixels, blocks *[BlocksPerMB]Block) {
	residual(cur, pred[:], MBSize, blocks)
}

// Reconstruct computes clamp(pred + residual) into dst for the four 8×8
// blocks of a macroblock, the final step of the MC stage. The decoder and
// the encoder's reference reconstruction loop run its kernel,
// reconstruct, straight into the frame.
func Reconstruct(dst, pred *MBPixels, blocks *[BlocksPerMB]Block) {
	reconstruct(dst[:], MBSize, pred[:], MBSize, blocks)
}

// residualGo is the portable body of residual: Residual against a
// prediction whose row j starts at pred[j·pstride].
func residualGo(cur *MBPixels, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	for b := 0; b < BlocksPerMB; b++ {
		bx, by := (b%2)*8, (b/2)*8
		blk := &blocks[b]
		for j := 0; j < 8; j++ {
			c, p := (by+j)*MBSize+bx, (by+j)*pstride+bx
			cr := cur[c : c+8 : c+8]
			pr := pred[p : p+8 : p+8]
			br := blk[j*8 : j*8+8 : j*8+8]
			for i := 0; i < 8; i++ {
				br[i] = int16(int(cr[i]) - int(pr[i]))
			}
		}
	}
}

// reconstructGo is the portable body of reconstruct: Reconstruct into a
// 16×16 block of dst whose row j starts at dst[j·stride], a macroblock
// (stride MBSize) or a frame position, from a prediction view whose row j
// starts at pred[j·pstride].
func reconstructGo(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	for b := 0; b < BlocksPerMB; b++ {
		bx, by := (b%2)*8, (b/2)*8
		blk := &blocks[b]
		for j := 0; j < 8; j++ {
			p := (by+j)*pstride + bx
			d := (by+j)*stride + bx
			pr := pred[p : p+8 : p+8]
			dr := dst[d : d+8 : d+8]
			br := blk[j*8 : j*8+8 : j*8+8]
			for i := 0; i < 8; i++ {
				dr[i] = clampByte(int(pr[i]) + int(br[i]))
			}
		}
	}
}

// IntraActivity is a cheap texture measure (sum of absolute deviations
// from the macroblock mean) used for the intra/inter mode decision: when
// the best inter SAD exceeds the activity, intra coding is cheaper.
// Both sums are sadRows against one row repeated (stride 0): the SAD
// against zeros is Σp, and against the integer mean Σ|p−mean|.
func IntraActivity(cur *MBPixels) int {
	var row [MBSize]byte
	mean := byte(sadRows(cur, row[:], 0, 1<<30) / len(cur))
	for i := range row {
		row[i] = mean
	}
	return sadRows(cur, row[:], 0, 1<<30)
}
