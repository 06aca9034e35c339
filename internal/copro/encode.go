package copro

import (
	"fmt"

	"eclipse/internal/media"
	"eclipse/internal/mem"
	"eclipse/internal/sim"
)

// Encode-direction task models. The encode application reuses the same
// coprocessors as decoding (Section 2.1's reuse argument): the DCT
// coprocessor time-shares forward and inverse transforms, the RLSQ
// quantization and dequantization, and the MC/ME coprocessor motion
// estimation and reference reconstruction. Canonical port orders:
//
//	me:   0 out resid | 1 out info | 2 in fb
//	fdct: 0 in resid  | 1 out coef          (same model as idct)
//	q:    0 in coef   | 1 in info | 2 out tok | 3 out rq | 4 out qz
//	iq:   0 in qz     | 1 out icoef
//	mcr:  0 in rq     | 1 in resid | 2 out fb
//	vle:  0 in info   | 1 in tok
//
// The mcr→me feedback stream closes the reconstruction loop: the ME
// starts a frame only after the previous coded frame is fully
// reconstructed, so its reference frames are bit-exact with a decoder's.

// RecInfoSize is the byte size of the Q→MCR reconstruction record:
// final mode (after the skip rule), motion vectors, and cbp.
const RecInfoSize = media.MBHeaderSize + 1

// appendRecInfo serializes a reconstruction record.
func appendRecInfo(dst []byte, dec media.MBDecision, cbp byte) []byte {
	dst = media.AppendMBHeader(dst, dec)
	return append(dst, cbp)
}

// parseRecInfo decodes a reconstruction record.
func parseRecInfo(src []byte) (media.MBDecision, byte, error) {
	dec, err := media.ParseMBHeader(src)
	if err != nil {
		return dec, 0, err
	}
	return dec, src[media.MBHeaderSize] & 0x0F, nil
}

// FrameDoneSize is the byte size of the mcr→me feedback token.
const FrameDoneSize = 4

// RawStore holds the uncompressed input video in off-chip memory: pixel
// values mirrored in frames, access timing charged against the memory
// model (the camera/capture buffer the ME reads over the system bus).
type RawStore struct {
	dram   *mem.Memory
	base   uint32
	frames []*media.Frame

	fetchFree []*fetchCtx // recycled FetchMB completion contexts
}

// NewRawStore registers raw frames at the given off-chip base address.
func NewRawStore(dram *mem.Memory, base uint32, frames []*media.Frame) (*RawStore, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("copro: raw store with no frames")
	}
	need := int(base) + len(frames)*frames[0].W*frames[0].H
	if need > dram.Size() {
		return nil, fmt.Errorf("copro: raw store needs %d bytes, off-chip memory has %d", need, dram.Size())
	}
	return &RawStore{dram: dram, base: base, frames: frames}, nil
}

// FetchMB charges the off-chip reads for loading one raw macroblock and
// returns its pixels.
func (rs *RawStore) FetchMB(p *sim.Proc, frame, mbx, mby int, dst *media.MBPixels) {
	f := rs.frames[frame]
	f.GetMB(mbx, mby, dst)
	addr := rs.base + uint32(frame*f.W*f.H+(mby*media.MBSize)*f.W+mbx*media.MBSize)
	fc := popFetchCtx(&rs.fetchFree, p, "mefetch")
	for r := 0; r < media.MBSize; r++ {
		rs.dram.ScheduleRead(addr+uint32(r*f.W), media.MBSize, fc.cb)
	}
	p.Wait(fc.sig)
	rs.fetchFree = append(rs.fetchFree, fc)
}

// ME is the motion-estimation task on the MC/ME coprocessor: it walks the
// input video in coded order, decides each macroblock's prediction mode
// against the shared framestore references, and emits the residual and
// decision streams. It waits on the feedback stream before starting each
// new frame so the reconstruction loop stays closed.
type ME struct {
	Costs *Costs
	Cfg   media.CodecConfig
	Raw   *RawStore
	FS    *Framestore // shared with the MCR task on the same coprocessor

	types   []media.FrameType
	order   []int
	frame   int // index into order (coded position)
	mbIdx   int
	inFrame bool
	fbWait  int // feedback tokens still outstanding before the next frame

	recBuf, hdrBuf []byte // reused record staging (the shell cache copies)
}

const (
	mePortResid = 0
	mePortInfo  = 1
	mePortFb    = 2
)

// Step emits one frame record or one macroblock's residual and decision.
func (m *ME) Step(c *Ctx) bool {
	if m.types == nil {
		n := len(m.Raw.frames)
		m.types = media.GOPTypes(n, m.Cfg.GOPN, m.Cfg.GOPM)
		m.order = media.CodedOrder(m.types)
	}
	if !m.inFrame {
		// Close the reconstruction loop: consume one feedback token per
		// previously issued frame.
		if m.fbWait > 0 {
			if !c.GetSpace(mePortFb, FrameDoneSize) {
				return false
			}
			var tok [FrameDoneSize]byte
			c.Read(mePortFb, 0, tok[:])
			c.PutSpace(mePortFb, FrameDoneSize)
			m.fbWait--
			return false
		}
		if m.frame == len(m.order) {
			return true
		}
		di := m.order[m.frame]
		m.recBuf = media.AppendFrameRec(m.recBuf[:0], 0xFC, media.FrameHdr{Type: m.types[di], TRef: uint16(di)})
		rec := m.recBuf
		if !c.GetSpace(mePortInfo, uint32(len(rec))) {
			return false
		}
		c.Write(mePortInfo, 0, rec)
		c.PutSpace(mePortInfo, uint32(len(rec)))
		c.Compute(4)
		m.inFrame = true
		m.mbIdx = 0
		return false
	}

	// One macroblock: decide, predict, emit residual + decision.
	di := m.order[m.frame]
	ftype := m.types[di]
	cols := m.Raw.frames[di].MBCols()
	mbx, mby := m.mbIdx%cols, m.mbIdx/cols
	x, y := mbx*media.MBSize, mby*media.MBSize

	if !c.GetSpace(mePortResid, media.MBCoefBytes) {
		return false
	}
	if !c.GetSpace(mePortInfo, media.MBHeaderSize) {
		return false
	}

	var mb media.MBPixels
	m.Raw.FetchMB(c.Proc(), di, mbx, mby, &mb)
	fwd, bwd := m.FS.Refs(ftype)
	dec, ops := media.DecideMB(&mb, ftype, x, y, fwd, bwd, m.Cfg.SearchRange, m.Cfg.HalfPel)
	c.Compute(uint64(ops) * m.Costs.MEPerCandidate)

	var pred media.MBPixels
	media.PredictHP(&pred, dec.Mode, fwd, bwd, x, y, dec.FMV, dec.BMV, m.Cfg.HalfPel)
	var resid [media.BlocksPerMB]media.Block
	media.Residual(&mb, &pred, &resid)
	c.Compute(m.Costs.MCRecon) // residual datapath

	m.recBuf = media.AppendMBBlocks(m.recBuf[:0], &resid)
	c.Write(mePortResid, 0, m.recBuf)
	c.PutSpace(mePortResid, media.MBCoefBytes)
	m.hdrBuf = media.AppendMBHeader(m.hdrBuf[:0], dec)
	c.Write(mePortInfo, 0, m.hdrBuf)
	c.PutSpace(mePortInfo, media.MBHeaderSize)

	m.mbIdx++
	if m.mbIdx == m.Raw.frames[di].MBCount() {
		m.inFrame = false
		m.frame++
		m.fbWait++
	}
	return false
}

// FDCT is the DCT coprocessor task in the encode direction (forward
// transform, one block per processing step).
type FDCT struct {
	Costs  *Costs
	Blocks int
	done   int

	inBuf  [media.BlockBytes]byte
	outBuf []byte
}

// Step transforms one block.
func (d *FDCT) Step(c *Ctx) bool {
	if !c.GetSpace(dctPortIn, media.BlockBytes) {
		return false
	}
	if !c.GetSpace(dctPortOut, media.BlockBytes) {
		return false
	}
	c.Read(dctPortIn, 0, d.inBuf[:])
	var in, out media.Block
	if err := media.ParseBlock(d.inBuf[:], &in); err != nil {
		panic("fdct: " + err.Error())
	}
	media.FDCT(&in, &out)
	c.Compute(d.Costs.DCTCost())
	d.outBuf = media.AppendBlock(d.outBuf[:0], &out)
	c.Write(dctPortOut, 0, d.outBuf)
	c.PutSpace(dctPortOut, media.BlockBytes)
	c.PutSpace(dctPortIn, media.BlockBytes)
	d.done++
	return d.done == d.Blocks
}

// Q is the RLSQ coprocessor task in the encode direction: zigzag scan,
// quantization, run-length coding, the skip-macroblock rule, and fan-out
// to the VLE (tokens), the reconstruction path (quantized blocks), and
// the MCR (final decisions).
type Q struct {
	Costs *Costs
	Seq   media.SeqHeader

	inFrame bool
	ftype   media.FrameType
	mbIdx   int
	frames  int

	// Reused per-step staging (the shell cache copies on Write, and
	// mid-step GetSpace retries re-read and recompute deterministically).
	frameB               [media.FrameRecSize]byte
	hdrB                 [media.MBHeaderSize]byte
	coefB                [media.MBCoefBytes]byte
	tok                  media.TokenMB // event arena, reused across macroblocks
	qz                   [media.BlocksPerMB]media.Block
	tokRec, rqRec, qzRec []byte
}

const (
	qPortCoef = 0
	qPortInfo = 1
	qPortTok  = 2
	qPortRq   = 3
	qPortQz   = 4
)

// Step processes one frame record or one macroblock.
func (q *Q) Step(c *Ctx) bool {
	if !q.inFrame {
		if !c.GetSpace(qPortInfo, media.FrameRecSize) {
			return false
		}
		c.Read(qPortInfo, 0, q.frameB[:])
		hdr, err := media.ParseFrameRec(q.frameB[:], 0xFC)
		if err != nil {
			panic("q: " + err.Error())
		}
		// Forward the frame boundary to the token and recon streams.
		q.tokRec = media.AppendFrameRec(q.tokRec[:0], media.FrameRecTok, hdr)
		q.rqRec = media.AppendFrameRec(q.rqRec[:0], media.FrameRecHdr, hdr)
		tokRec, rqRec := q.tokRec, q.rqRec
		if !c.GetSpace(qPortTok, uint32(len(tokRec))) {
			return false
		}
		if !c.GetSpace(qPortRq, uint32(len(rqRec))) {
			return false
		}
		c.PutSpace(qPortInfo, media.FrameRecSize)
		c.Write(qPortTok, 0, tokRec)
		c.PutSpace(qPortTok, uint32(len(tokRec)))
		c.Write(qPortRq, 0, rqRec)
		c.PutSpace(qPortRq, uint32(len(rqRec)))
		c.Compute(2)
		q.ftype = hdr.Type
		q.inFrame = true
		q.mbIdx = 0
		return false
	}

	if !c.GetSpace(qPortInfo, media.MBHeaderSize) {
		return false
	}
	if !c.GetSpace(qPortCoef, media.MBCoefBytes) {
		return false
	}
	c.Read(qPortInfo, 0, q.hdrB[:])
	dec, err := media.ParseMBHeader(q.hdrB[:])
	if err != nil {
		panic("q: " + err.Error())
	}
	c.Read(qPortCoef, 0, q.coefB[:])
	var coef [media.BlocksPerMB]media.Block
	if err := media.ParseMBBlocks(q.coefB[:], &coef); err != nil {
		panic("q: " + err.Error())
	}

	tok := &q.tok
	tok.Reset()
	intra := dec.Mode == media.PredIntra
	tokens := 0
	for b := 0; b < media.BlocksPerMB; b++ {
		q.qz[b] = media.RLSQEncodeBlockInto(&coef[b], intra, q.Seq.Q, tok, b)
		if n := len(tok.Events[b]); n > 0 {
			tok.CBP |= 1 << b
			tokens += n
		}
	}
	final := dec
	if media.IsSkipMB(q.ftype, dec, tok.CBP) {
		final = media.MBDecision{Mode: media.PredSkip}
		tok.Reset()
		q.qz = [media.BlocksPerMB]media.Block{}
	}

	q.tokRec = media.AppendTokenMB(q.tokRec[:0], tok)
	if !c.GetSpace(qPortTok, uint32(len(q.tokRec))) {
		return false
	}
	if !c.GetSpace(qPortRq, RecInfoSize) {
		return false
	}
	if !c.GetSpace(qPortQz, media.MBCoefBytes) {
		return false
	}
	c.Compute(q.Costs.RLSQCost(tokens, media.BlocksPerMB))
	c.Write(qPortTok, 0, q.tokRec)
	c.PutSpace(qPortTok, uint32(len(q.tokRec)))
	q.rqRec = appendRecInfo(q.rqRec[:0], final, tok.CBP)
	c.Write(qPortRq, 0, q.rqRec)
	c.PutSpace(qPortRq, RecInfoSize)
	q.qzRec = media.AppendMBBlocks(q.qzRec[:0], &q.qz)
	c.Write(qPortQz, 0, q.qzRec)
	c.PutSpace(qPortQz, media.MBCoefBytes)
	c.PutSpace(qPortInfo, media.MBHeaderSize)
	c.PutSpace(qPortCoef, media.MBCoefBytes)

	q.mbIdx++
	if q.mbIdx == q.Seq.MBCount() {
		q.inFrame = false
		q.frames++
	}
	return q.frames == q.Seq.Frames
}

// IQ is the RLSQ coprocessor task performing inverse quantization and
// inverse zigzag scan in the encoder's reconstruction path, one block per
// processing step.
type IQ struct {
	Costs  *Costs
	QParam int
	Blocks int
	done   int

	inBuf  [media.BlockBytes]byte
	outBuf []byte
}

const (
	iqPortIn  = 0
	iqPortOut = 1
)

// Step dequantizes one block.
func (d *IQ) Step(c *Ctx) bool {
	if !c.GetSpace(iqPortIn, media.BlockBytes) {
		return false
	}
	if !c.GetSpace(iqPortOut, media.BlockBytes) {
		return false
	}
	c.Read(iqPortIn, 0, d.inBuf[:])
	var zz, dzz, out media.Block
	if err := media.ParseBlock(d.inBuf[:], &zz); err != nil {
		panic("iq: " + err.Error())
	}
	media.Dequantize(&zz, &dzz, d.QParam)
	media.InverseZigzag(&dzz, &out)
	c.Compute(d.Costs.RLSQPerBlock * 2)
	d.outBuf = media.AppendBlock(d.outBuf[:0], &out)
	c.Write(iqPortOut, 0, d.outBuf)
	c.PutSpace(iqPortOut, media.BlockBytes)
	c.PutSpace(iqPortIn, media.BlockBytes)
	d.done++
	return d.done == d.Blocks
}

// MCR is the MC/ME coprocessor task reconstructing reference frames in
// the encoder (prediction + residual, framestore writeback) and emitting
// the frame-done feedback tokens that pace the ME.
type MCR struct {
	Costs *Costs
	Seq   media.SeqHeader
	FS    *Framestore

	inFrame bool
	hdr     media.FrameHdr
	cur     *media.Frame
	mbIdx   int
	frames  int

	frameB [media.FrameRecSize]byte
	rqB    [RecInfoSize]byte
	residB [media.MBCoefBytes]byte
}

const (
	mcrPortRq    = 0
	mcrPortResid = 1
	mcrPortFb    = 2
)

// Step processes one frame record or one macroblock.
func (m *MCR) Step(c *Ctx) bool {
	if !m.inFrame {
		if !c.GetSpace(mcrPortRq, media.FrameRecSize) {
			return false
		}
		c.Read(mcrPortRq, 0, m.frameB[:])
		hdr, err := media.ParseFrameRec(m.frameB[:], media.FrameRecHdr)
		if err != nil {
			panic("mcr: " + err.Error())
		}
		c.PutSpace(mcrPortRq, media.FrameRecSize)
		c.Compute(2)
		m.hdr = hdr
		m.cur = m.FS.BeginFrame()
		m.inFrame = true
		m.mbIdx = 0
		return false
	}

	if !c.GetSpace(mcrPortRq, RecInfoSize) {
		return false
	}
	if !c.GetSpace(mcrPortResid, media.MBCoefBytes) {
		return false
	}
	c.Read(mcrPortRq, 0, m.rqB[:])
	dec, _, err := parseRecInfo(m.rqB[:])
	if err != nil {
		panic("mcr: " + err.Error())
	}
	c.Read(mcrPortResid, 0, m.residB[:])
	var resid [media.BlocksPerMB]media.Block
	if err := media.ParseMBBlocks(m.residB[:], &resid); err != nil {
		panic("mcr: " + err.Error())
	}

	mbx, mby := m.mbIdx%m.Seq.MBCols, m.mbIdx/m.Seq.MBCols
	x, y := mbx*media.MBSize, mby*media.MBSize
	fwd, bwd := m.FS.Refs(m.hdr.Type)
	switch dec.Mode {
	case media.PredFwd:
		m.FS.FetchRegion(c.Proc(), fwd, x+int(dec.FMV.X), y+int(dec.FMV.Y))
	case media.PredSkip:
		m.FS.FetchRegion(c.Proc(), fwd, x, y)
	case media.PredBwd:
		m.FS.FetchRegion(c.Proc(), bwd, x+int(dec.BMV.X), y+int(dec.BMV.Y))
	case media.PredBi:
		m.FS.FetchRegion(c.Proc(), fwd, x+int(dec.FMV.X), y+int(dec.FMV.Y))
		m.FS.FetchRegion(c.Proc(), bwd, x+int(dec.BMV.X), y+int(dec.BMV.Y))
	}
	var pred, out media.MBPixels
	media.PredictHP(&pred, dec.Mode, fwd, bwd, x, y, dec.FMV, dec.BMV, m.Seq.HalfPel)
	media.Reconstruct(&out, &pred, &resid)
	c.Compute(m.Costs.MCRecon)
	if dec.Mode == media.PredBi {
		c.Compute(m.Costs.MCBiExtra)
	}
	if m.Seq.HalfPel && (dec.FMV.X&1 != 0 || dec.FMV.Y&1 != 0 || dec.BMV.X&1 != 0 || dec.BMV.Y&1 != 0) {
		c.Compute(m.Costs.MCHalfPelExtra)
	}
	m.FS.StoreMB(m.cur, mbx, mby, &out)
	c.PutSpace(mcrPortRq, RecInfoSize)
	c.PutSpace(mcrPortResid, media.MBCoefBytes)

	m.mbIdx++
	if m.mbIdx == m.Seq.MBCount() {
		m.FS.EndFrame(m.cur, m.hdr.Type)
		m.inFrame = false
		m.frames++
		if !c.GetSpace(mcrPortFb, FrameDoneSize) {
			panic("mcr: feedback stream full") // sized for one token per frame in flight
		}
		var tok [FrameDoneSize]byte
		c.Write(mcrPortFb, 0, tok[:])
		c.PutSpace(mcrPortFb, FrameDoneSize)
	}
	return m.frames == m.Seq.Frames
}

// VLE is the software variable-length encoder on the media processor
// (Figure 8 runs variable-length *encoding* in software): it assembles
// the final bitstream from the decision and token streams using the same
// syntax writer as the monolithic encoder, so the output is bit-exact.
type VLE struct {
	Costs *Costs
	Seq   media.SeqHeader

	w       *media.BitWriter
	inFrame bool
	ftype   media.FrameType
	mvp     media.MVPredictor
	mbIdx   int
	frames  int
	out     []byte

	frameB [media.FrameRecSize]byte
	hdrB   [media.MBHeaderSize]byte
	rec    []byte
	tok    media.TokenMB // reused across macroblocks (event arena)
}

const (
	vlePortInfo = 0
	vlePortTok  = 1
)

// Bitstream returns the assembled stream (valid after the run finishes).
func (v *VLE) Bitstream() []byte { return v.out }

// Step consumes one frame record or one macroblock.
func (v *VLE) Step(c *Ctx) bool {
	if v.w == nil {
		v.w = media.NewBitWriter()
		media.WriteSeqHeader(v.w, &v.Seq)
	}
	if !v.inFrame {
		if !c.GetSpace(vlePortInfo, media.FrameRecSize) {
			return false
		}
		if !c.GetSpace(vlePortTok, media.FrameRecSize) {
			return false
		}
		c.Read(vlePortInfo, 0, v.frameB[:])
		hdr, err := media.ParseFrameRec(v.frameB[:], 0xFC)
		if err != nil {
			panic("vle: " + err.Error())
		}
		// The token stream carries a matching frame boundary record
		// (hdr is already a value copy, so the buffer can be reused).
		c.Read(vlePortTok, 0, v.frameB[:])
		if _, err := media.ParseFrameRec(v.frameB[:], media.FrameRecTok); err != nil {
			panic("vle: " + err.Error())
		}
		c.PutSpace(vlePortInfo, media.FrameRecSize)
		c.PutSpace(vlePortTok, media.FrameRecSize)
		c.Compute(v.Costs.SWChunk)
		media.WriteFrameHdr(v.w, hdr)
		v.ftype = hdr.Type
		v.inFrame = true
		v.mbIdx = 0
		return false
	}

	// One macroblock: original decision + token record, re-applying the
	// skip rule exactly as the Q task did.
	if !c.GetSpace(vlePortInfo, media.MBHeaderSize) {
		return false
	}
	c.Read(vlePortInfo, 0, v.hdrB[:])
	dec, err := media.ParseMBHeader(v.hdrB[:])
	if err != nil {
		panic("vle: " + err.Error())
	}
	if !c.GetSpace(vlePortTok, media.TokenLenSize) {
		return false
	}
	var lenBuf [media.TokenLenSize]byte
	c.Read(vlePortTok, 0, lenBuf[:])
	pos := uint32(media.TokenLenSize) + (uint32(lenBuf[0]) | uint32(lenBuf[1])<<8)
	if !c.GetSpace(vlePortTok, pos) {
		return false // re-execute the step (nothing committed)
	}
	v.rec = growBytes(v.rec, int(pos))
	c.Read(vlePortTok, 0, v.rec)
	if _, err := media.ParseTokenMBInto(v.rec, &v.tok); err != nil {
		panic("vle: " + err.Error())
	}
	tok := &v.tok

	if v.mbIdx%v.Seq.MBCols == 0 {
		v.mvp.RowStart()
	}
	if media.IsSkipMB(v.ftype, dec, tok.CBP) {
		dec = media.MBDecision{Mode: media.PredSkip}
	}
	var qzz [media.BlocksPerMB]media.Block
	for blk := 0; blk < media.BlocksPerMB; blk++ {
		if tok.CBP&(1<<blk) == 0 {
			continue
		}
		if !media.RunLengthExpand(tok.Events[blk], &qzz[blk]) {
			panic("vle: bad token events")
		}
	}
	c.Compute(v.Costs.SWPerMB)
	media.EncodeMBSyntax(v.w, v.ftype, dec, &v.mvp, tok.CBP, &qzz)
	c.PutSpace(vlePortInfo, media.MBHeaderSize)
	c.PutSpace(vlePortTok, pos)

	v.mbIdx++
	if v.mbIdx == v.Seq.MBCount() {
		v.inFrame = false
		v.frames++
		if v.frames == v.Seq.Frames {
			v.out = v.w.Bytes()
			return true
		}
	}
	return false
}
