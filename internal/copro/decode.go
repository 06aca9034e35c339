package copro

import (
	"errors"
	"fmt"

	"eclipse/internal/media"
	"eclipse/internal/mem"
)

// Decode-direction task models. Canonical port orders (the mapping layer
// must connect ports in this order):
//
//	bitsrc: 0 out bits
//	vld:    0 in bits | 1 out tok | 2 out hdr
//	idct:   0 in coef | 1 out resid        (RLSQ decode: 0 in tok | 1 out coef)
//	mc:     0 in hdr  | 1 in resid | 2 out pix
//	sink:   0 in hdr  | 1 in pix

// BitSource streams a compressed bitstream from off-chip memory into the
// VLD's input stream — the DMA-like software task standing in for the
// VLD's dedicated system-bus connection of Figure 8.
type BitSource struct {
	Costs      *Costs
	DRAM       *mem.Memory
	Addr       uint32 // bitstream location in off-chip memory
	Len        int
	Chunk      int // transfer unit in bytes
	sent       int
	StartDelay uint64 // cycles to wait before the first chunk (arrival model)
	started    bool
	scratch    []byte // reused chunk staging buffer
}

// Step transfers one chunk per processing step.
func (b *BitSource) Step(c *Ctx) bool {
	if !b.started {
		b.started = true
		if b.StartDelay > 0 {
			c.Compute(b.StartDelay)
		}
	}
	if b.Chunk <= 0 {
		b.Chunk = 64
	}
	n := b.Chunk
	if b.sent+n > b.Len {
		n = b.Len - b.sent
	}
	if n == 0 {
		return true
	}
	if !c.GetSpace(0, uint32(n)) {
		return false
	}
	b.scratch = growBytes(b.scratch, n)
	buf := b.scratch[:n]
	b.DRAM.ReadAccess(c.Proc(), b.Addr+uint32(b.sent), buf)
	c.Compute(b.Costs.SWChunk)
	c.Write(0, 0, buf)
	c.PutSpace(0, uint32(n))
	b.sent += n
	return b.sent == b.Len
}

// VLD is the variable-length decoder coprocessor task: it parses the
// bitstream incrementally (data-dependent input) and emits token records
// to the RLSQ and header records to the MC. A processing step handles one
// parser event; output records that do not fit are kept as pending state
// and retried, so a task switch can happen between parse and emit.
type VLD struct {
	Costs *Costs
	Chunk int // input transfer unit
	Len   int // stream bytes: those after the last frame are read and dropped

	parser   *media.StreamVLD
	pendTok  []byte
	pendHdr  []byte
	pendCost uint64
	fetched  int // stream bytes taken so far

	// Reused backing storage: pendTok/pendHdr are rebuilt into these
	// after every flush, and inBuf stages input transfers (the parser
	// copies extended bytes, so the staging buffer is reusable).
	tokBuf []byte
	hdrBuf []byte
	inBuf  []byte
}

const (
	vldPortIn  = 0
	vldPortTok = 1
	vldPortHdr = 2
)

// Step advances the VLD by one event (or one input transfer, or one
// pending-output flush).
func (v *VLD) Step(c *Ctx) bool {
	if v.parser == nil {
		v.parser = media.NewStreamVLD()
	}
	if v.Chunk <= 0 {
		v.Chunk = 64
	}
	// Flush pending output first; abort the step if space is denied.
	if v.pendTok != nil || v.pendHdr != nil {
		if !v.flushPending(c) {
			return false
		}
	}
	ev, err := v.parser.Next()
	if errors.Is(err, media.ErrNeedData) {
		return v.fetchInput(c)
	}
	if err != nil {
		panic(fmt.Sprintf("vld: corrupt bitstream at %s: %v", v.parser.Progress(), err))
	}
	switch ev.Kind {
	case media.EventSeq:
		// Sequence parameters are configuration, propagated at setup;
		// nothing flows downstream. Commit the consumed header bytes.
		v.commitInput(c)
		c.Compute(4)
	case media.EventFrame:
		v.tokBuf = media.AppendFrameRec(v.tokBuf[:0], media.FrameRecTok, ev.Frame)
		v.hdrBuf = media.AppendFrameRec(v.hdrBuf[:0], media.FrameRecHdr, ev.Frame)
		v.pendTok, v.pendHdr = v.tokBuf, v.hdrBuf
		v.pendCost = 4
		v.commitInput(c)
		v.flushPending(c)
	case media.EventMB:
		v.tokBuf = media.AppendTokenMB(v.tokBuf[:0], &ev.Tok)
		v.hdrBuf = media.AppendMBHeader(v.hdrBuf[:0], ev.MB)
		v.pendTok, v.pendHdr = v.tokBuf, v.hdrBuf
		v.pendCost = v.Costs.VLDCost(ev.Bits)
		v.commitInput(c)
		v.flushPending(c)
	case media.EventEnd:
		v.commitInput(c)
		if v.fetched < v.Len { // so that the source, blocked on a full buffer, can finish
			return v.fetchInput(c)
		}
		return true
	}
	return false
}

// fetchInput pulls more bitstream bytes into the parser; near the stream
// tail (where a full chunk will never arrive) it degrades to single
// bytes — the data-dependent input pattern of Section 4.2.
func (v *VLD) fetchInput(c *Ctx) bool {
	n := uint32(v.Chunk)
	if !c.GetSpace(vldPortIn, n) {
		n = 1
		if !c.GetSpace(vldPortIn, 1) {
			return false // abort step; scheduler re-dispatches when data arrives
		}
	}
	v.inBuf = growBytes(v.inBuf, int(n))
	v.fetched += int(n)
	buf := v.inBuf
	c.Read(vldPortIn, 0, buf)
	v.parser.Extend(buf)
	c.PutSpace(vldPortIn, n)
	return false
}

// commitInput releases fully consumed input bytes. The parser retains
// unconsumed bytes internally, so the stream buffer space can be released
// as soon as the bytes crossed the interface.
func (v *VLD) commitInput(c *Ctx) {
	v.parser.Compact()
}

// flushPending tries to emit the pending records; returns false (leaving
// the remainder pending) when output space is denied.
func (v *VLD) flushPending(c *Ctx) bool {
	if v.pendTok != nil {
		if !c.GetSpace(vldPortTok, uint32(len(v.pendTok))) {
			return false
		}
	}
	if v.pendHdr != nil {
		if !c.GetSpace(vldPortHdr, uint32(len(v.pendHdr))) {
			return false
		}
	}
	if v.pendCost > 0 {
		c.Compute(v.pendCost)
		v.pendCost = 0
	}
	if v.pendTok != nil {
		c.Write(vldPortTok, 0, v.pendTok)
		c.PutSpace(vldPortTok, uint32(len(v.pendTok)))
		v.pendTok = nil
	}
	if v.pendHdr != nil {
		c.Write(vldPortHdr, 0, v.pendHdr)
		c.PutSpace(vldPortHdr, uint32(len(v.pendHdr)))
		v.pendHdr = nil
	}
	return true
}

// RLSQ is the run-length/scan/quantization coprocessor task in the decode
// direction: token records in, dequantized coefficient macroblocks out.
// Its input records are variable length, so it reads the coded-block
// pattern and events through a growing GetSpace window; on any denial it
// aborts and re-executes the whole processing step later (the two-exit
// control structure of Section 4.2 — nothing was committed).
type RLSQ struct {
	Costs *Costs
	Seq   media.SeqHeader

	inFrame bool
	mbIdx   int
	frames  int

	rec    []byte        // reused token-record staging buffer
	tok    media.TokenMB // reused token (event arena)
	outBuf []byte        // reused serialized coefficient record
	frameB [media.FrameRecSize]byte
}

const (
	rlsqPortIn  = 0
	rlsqPortOut = 1
)

// Step processes one frame record or one macroblock.
func (r *RLSQ) Step(c *Ctx) bool {
	if !r.inFrame {
		if !c.GetSpace(rlsqPortIn, media.FrameRecSize) {
			return false
		}
		buf := r.frameB[:]
		c.Read(rlsqPortIn, 0, buf)
		if _, err := media.ParseFrameRec(buf, media.FrameRecTok); err != nil {
			panic("rlsq: " + err.Error())
		}
		c.PutSpace(rlsqPortIn, media.FrameRecSize)
		c.Compute(2)
		r.inFrame = true
		r.mbIdx = 0
		return false
	}

	// Parse one token record with the two-phase data-dependent input
	// pattern of Section 4.2: acquire the length prefix, then grow the
	// window to the whole record. Nothing is committed until the output
	// is written, so aborting on any denied GetSpace re-executes the
	// step from the start at no cost in correctness.
	if !c.GetSpace(rlsqPortIn, media.TokenLenSize) {
		return false
	}
	var lenBuf [media.TokenLenSize]byte
	c.Read(rlsqPortIn, 0, lenBuf[:])
	body := uint32(lenBuf[0]) | uint32(lenBuf[1])<<8
	total := media.TokenLenSize + body
	if !c.GetSpace(rlsqPortIn, total) {
		return false // re-execute: length will be re-read
	}
	r.rec = growBytes(r.rec, int(total))
	rec := r.rec
	c.Read(rlsqPortIn, 0, rec)
	n, err := media.ParseTokenMBInto(rec, &r.tok)
	if err != nil || uint32(n) != total {
		panic(fmt.Sprintf("rlsq: bad token record: %v", err))
	}
	tok := &r.tok
	pos := total
	tokens := tok.TokenCount()
	codedBlocks := 0
	for blk := 0; blk < media.BlocksPerMB; blk++ {
		if tok.CBP&(1<<blk) != 0 {
			codedBlocks++
		}
	}

	// Output space, then compute and emit.
	if !c.GetSpace(rlsqPortOut, media.MBCoefBytes) {
		return false
	}
	var coef [media.BlocksPerMB]media.Block
	if err := media.RLSQDecodeMB(tok, r.Seq.Q, &coef); err != nil {
		panic("rlsq: " + err.Error())
	}
	c.Compute(r.Costs.RLSQCost(tokens, codedBlocks))
	r.outBuf = media.AppendMBBlocks(r.outBuf[:0], &coef)
	c.Write(rlsqPortOut, 0, r.outBuf)
	c.PutSpace(rlsqPortOut, media.MBCoefBytes)
	c.PutSpace(rlsqPortIn, pos)

	r.mbIdx++
	if r.mbIdx == r.Seq.MBCount() {
		r.inFrame = false
		r.frames++
	}
	return r.frames == r.Seq.Frames
}

// IDCT is the DCT coprocessor task in the decode direction: one 8×8
// block per processing step (the paper's example of a near-stateless
// packet-granularity coprocessor).
type IDCT struct {
	Costs  *Costs
	Blocks int // total blocks to process (frames × MBs × 4)
	done   int

	inBuf  [media.BlockBytes]byte // reused block staging buffers
	outBuf []byte
}

const (
	dctPortIn  = 0
	dctPortOut = 1
)

// Step transforms one block.
func (d *IDCT) Step(c *Ctx) bool {
	if !c.GetSpace(dctPortIn, media.BlockBytes) {
		return false
	}
	if !c.GetSpace(dctPortOut, media.BlockBytes) {
		return false
	}
	buf := d.inBuf[:]
	c.Read(dctPortIn, 0, buf)
	var in, out media.Block
	if err := media.ParseBlock(buf, &in); err != nil {
		panic("idct: " + err.Error())
	}
	media.IDCT(&in, &out)
	c.Compute(d.Costs.DCTCost())
	d.outBuf = media.AppendBlock(d.outBuf[:0], &out)
	c.Write(dctPortOut, 0, d.outBuf)
	c.PutSpace(dctPortOut, media.BlockBytes)
	c.PutSpace(dctPortIn, media.BlockBytes)
	d.done++
	return d.done == d.Blocks
}

// MC is the motion-compensation coprocessor task in the decode direction:
// header and residual records in, reconstructed pixels out, with
// prediction fetches and reconstruction writebacks against the off-chip
// framestore over its dedicated system-bus connection.
type MC struct {
	Costs *Costs
	Seq   media.SeqHeader
	FS    *Framestore

	inFrame bool
	hdr     media.FrameHdr
	cur     *media.Frame
	mbIdx   int
	frames  int

	hdrB   [media.MBHeaderSize]byte // reused header staging buffer
	residB [media.MBCoefBytes]byte  // reused residual staging buffer
	frameB [media.FrameRecSize]byte
}

const (
	mcPortHdr   = 0
	mcPortResid = 1
	mcPortPix   = 2
)

// Step processes one frame record or one macroblock.
func (m *MC) Step(c *Ctx) bool {
	if !m.inFrame {
		if !c.GetSpace(mcPortHdr, media.FrameRecSize) {
			return false
		}
		buf := m.frameB[:]
		c.Read(mcPortHdr, 0, buf)
		hdr, err := media.ParseFrameRec(buf, media.FrameRecHdr)
		if err != nil {
			panic("mc: " + err.Error())
		}
		if err := m.FS.refs.Check(hdr.Type); err != nil {
			panic("mc: " + err.Error())
		}
		c.PutSpace(mcPortHdr, media.FrameRecSize)
		c.Compute(2)
		m.hdr = hdr
		m.cur = m.FS.BeginFrame()
		m.inFrame = true
		m.mbIdx = 0
		return false
	}

	if !c.GetSpace(mcPortHdr, media.MBHeaderSize) {
		return false
	}
	if !c.GetSpace(mcPortResid, media.MBCoefBytes) {
		return false
	}
	if !c.GetSpace(mcPortPix, media.MBPixBytes) {
		return false
	}
	hbuf := m.hdrB[:]
	c.Read(mcPortHdr, 0, hbuf)
	dec, err := media.ParseMBHeader(hbuf)
	if err != nil {
		panic("mc: " + err.Error())
	}
	rbuf := m.residB[:]
	c.Read(mcPortResid, 0, rbuf)
	var resid [media.BlocksPerMB]media.Block
	if err := media.ParseMBBlocks(rbuf, &resid); err != nil {
		panic("mc: " + err.Error())
	}

	mbx, mby := m.mbIdx%m.Seq.MBCols, m.mbIdx/m.Seq.MBCols
	x, y := mbx*media.MBSize, mby*media.MBSize
	fwd, bwd := m.FS.Refs(m.hdr.Type)

	// Charge the off-chip prediction fetches (one region per used
	// reference — two for bi-directional prediction, the Figure 10 cause
	// of the B-frame MC bottleneck).
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

	c.Write(mcPortPix, 0, out[:])
	c.PutSpace(mcPortPix, media.MBPixBytes)
	c.PutSpace(mcPortHdr, media.MBHeaderSize)
	c.PutSpace(mcPortResid, media.MBCoefBytes)

	m.mbIdx++
	if m.mbIdx == m.Seq.MBCount() {
		m.FS.EndFrame(m.cur, m.hdr.Type)
		m.inFrame = false
		m.frames++
	}
	return m.frames == m.Seq.Frames
}

// FrameEvent records the completion of one coded frame at the sink, for
// experiment timelines (attributing trace intervals to frames, as the
// GOP annotation above the paper's Figure 10 does).
type FrameEvent struct {
	TRef  uint16
	Type  media.FrameType
	Cycle uint64
}

// Sink is the software task collecting decoded pixels into display-order
// frames (the consumer end of the application). It consumes the header
// stream (a second consumer of the VLD's broadcast) to learn frame
// boundaries and display indices.
type Sink struct {
	Costs *Costs
	Seq   media.SeqHeader

	Frames   []*media.Frame // display order, filled as frames complete
	Timeline []FrameEvent   // coded order, one event per completed frame

	inFrame bool
	hdr     media.FrameHdr
	cur     *media.Frame
	mbIdx   int
	frames  int
}

const (
	sinkPortHdr = 0
	sinkPortPix = 1
)

// Step consumes one frame record or one macroblock.
func (s *Sink) Step(c *Ctx) bool {
	if s.Frames == nil {
		s.Frames = make([]*media.Frame, s.Seq.Frames)
	}
	if !s.inFrame {
		if !c.GetSpace(sinkPortHdr, media.FrameRecSize) {
			return false
		}
		var frameB [media.FrameRecSize]byte
		buf := frameB[:]
		c.Read(sinkPortHdr, 0, buf)
		hdr, err := media.ParseFrameRec(buf, media.FrameRecHdr)
		if err != nil {
			panic("sink: " + err.Error())
		}
		c.PutSpace(sinkPortHdr, media.FrameRecSize)
		s.hdr = hdr
		s.cur = media.NewFrame(s.Seq.W(), s.Seq.H())
		s.inFrame = true
		s.mbIdx = 0
		return false
	}
	if !c.GetSpace(sinkPortHdr, media.MBHeaderSize) {
		return false
	}
	if !c.GetSpace(sinkPortPix, media.MBPixBytes) {
		return false
	}
	var pix media.MBPixels
	c.Read(sinkPortPix, 0, pix[:])
	c.PutSpace(sinkPortHdr, media.MBHeaderSize) // header content unused here
	c.PutSpace(sinkPortPix, media.MBPixBytes)
	c.Compute(s.Costs.SWChunk)
	s.cur.SetMB(s.mbIdx%s.Seq.MBCols, s.mbIdx/s.Seq.MBCols, &pix)
	s.mbIdx++
	if s.mbIdx == s.Seq.MBCount() {
		if int(s.hdr.TRef) < len(s.Frames) {
			s.Frames[s.hdr.TRef] = s.cur
		}
		s.Timeline = append(s.Timeline, FrameEvent{TRef: s.hdr.TRef, Type: s.hdr.Type, Cycle: c.Now()})
		s.inFrame = false
		s.frames++
	}
	return s.frames == s.Seq.Frames
}
