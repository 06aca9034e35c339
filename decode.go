package eclipse

import (
	"fmt"

	"eclipse/internal/copro"
	"eclipse/internal/kpn"
	"eclipse/internal/media"
)

// DecodeBuffers sets the stream buffer sizes (bytes, in on-chip SRAM) of
// a decode application. The token buffer must hold the largest token
// record (~800 bytes); the coefficient/residual buffers must hold at
// least one 512-byte macroblock record.
type DecodeBuffers struct {
	Bits, Tok, Hdr, Coef, Resid, Pix int
}

// DefaultDecodeBuffers fits roughly four decode applications in the
// 32 kB Figure 8 stream memory.
func DefaultDecodeBuffers() DecodeBuffers {
	return DecodeBuffers{
		Bits:  512,
		Tok:   1536,
		Hdr:   256,
		Coef:  2048,
		Resid: 2048,
		Pix:   1024,
	}
}

// DecodeGraph builds the MPEG-2-style decoder process network of the
// paper's Figure 2, adapted to this repository's codec: bit-stream source
// → VLD → RLSQ → IDCT → MC → sink, with the VLD's header/motion stream
// broadcast to both the MC and the sink. Task and port declaration order
// follows the coprocessor models' canonical port orders.
func DecodeGraph(name string, buf DecodeBuffers) *kpn.Graph {
	g := kpn.NewGraph(name)
	p := func(s string) string { return name + "-" + s }
	g.AddTask(p("src"), "bitsrc").AddOut("bits")
	g.AddTask(p("vld"), "vld").AddIn("bits").AddOut("tok").AddOut("hdr")
	g.AddTask(p("rlsq"), "rlsq").AddIn("tok").AddOut("coef")
	g.AddTask(p("idct"), "idct").AddIn("coef").AddOut("resid")
	g.AddTask(p("mc"), "mc").AddIn("hdr").AddIn("resid").AddOut("pix")
	g.AddTask(p("sink"), "sink").AddIn("hdr").AddIn("pix")
	g.MustConnect(p("src")+".bits", buf.Bits, p("vld")+".bits")
	g.MustConnect(p("vld")+".tok", buf.Tok, p("rlsq")+".tok")
	g.MustConnect(p("vld")+".hdr", buf.Hdr, p("mc")+".hdr", p("sink")+".hdr")
	g.MustConnect(p("rlsq")+".coef", buf.Coef, p("idct")+".coef")
	g.MustConnect(p("idct")+".resid", buf.Resid, p("mc")+".resid")
	g.MustConnect(p("mc")+".pix", buf.Pix, p("sink")+".pix")
	return g
}

// DecodeOptions customizes a decode application instance.
type DecodeOptions struct {
	Buffers *DecodeBuffers    // nil for defaults
	Mapping map[string]string // fn → coprocessor; nil for DefaultDecodeMapping
	Budget  uint64            // scheduler budget per task; 0 for default
	Chunk   int               // bit-stream transfer unit; 0 for 64
	Probes  bool              // register Figure 10 trace probes
}

// DecodeApp is one decode application mapped onto the instance.
type DecodeApp struct {
	Name  string
	Seq   media.SeqHeader
	Graph *kpn.Graph
	Sink  *copro.Sink
}

// Frames returns the decoded frames in display order (valid after Run).
func (a *DecodeApp) Frames() []*media.Frame { return a.Sink.Frames }

// VerifyAgainstReference decodes the same bitstream with the monolithic
// reference decoder and reports the first mismatch, if any — the
// correctness contract between the Eclipse mapping and Kahn semantics.
func (a *DecodeApp) VerifyAgainstReference(stream []byte) error {
	ref, err := media.Decode(stream)
	if err != nil {
		return err
	}
	want := ref.DisplayFrames()
	got := a.Frames()
	if len(got) != len(want) {
		return fmt.Errorf("eclipse: decoded %d frames, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			return fmt.Errorf("eclipse: frame %d missing", i)
		}
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("eclipse: frame %d differs from reference decode", i)
		}
	}
	return nil
}

// AddDecodeApp loads a bitstream into off-chip memory, builds the decode
// process network, and maps it onto the instance's coprocessors. Multiple
// decode (and encode) applications can be added to one system; the
// multi-tasking coprocessors time-share between them (Section 4.2).
func (s *System) AddDecodeApp(name string, stream []byte, opt DecodeOptions) (*DecodeApp, error) {
	r := media.NewBitReader(stream)
	seq, err := media.ParseSeqHeader(r)
	if err != nil {
		return nil, fmt.Errorf("eclipse: %s: %w", name, err)
	}
	bufs := DefaultDecodeBuffers()
	if opt.Buffers != nil {
		bufs = *opt.Buffers
	}
	mapping := DefaultDecodeMapping
	if opt.Mapping != nil {
		mapping = opt.Mapping
	}
	g := DecodeGraph(name, bufs)

	bitAddr, err := s.AllocDRAM(len(stream))
	if err != nil {
		return nil, err
	}
	s.DRAM.Poke(bitAddr, stream)
	fsBase, err := s.AllocDRAM(3 * seq.W() * seq.H())
	if err != nil {
		return nil, err
	}
	fs, err := copro.NewFramestore(s.DRAM, seq.W(), seq.H(), fsBase)
	if err != nil {
		return nil, err
	}

	costs := &s.Arch.Costs
	sink := &copro.Sink{Costs: costs, Seq: seq}
	p := func(n string) string { return name + "-" + n }
	impls := map[string]copro.Task{
		p("src"):  &copro.BitSource{Costs: costs, DRAM: s.DRAM, Addr: bitAddr, Len: len(stream), Chunk: opt.Chunk},
		p("vld"):  &copro.VLD{Costs: costs, Chunk: opt.Chunk},
		p("rlsq"): &copro.RLSQ{Costs: costs, Seq: seq},
		p("idct"): &copro.IDCT{Costs: costs, Blocks: seq.Frames * seq.MBCount() * media.BlocksPerMB},
		p("mc"):   &copro.MC{Costs: costs, Seq: seq, FS: fs},
		p("sink"): sink,
	}
	if err := s.MapGraph(g, mapping, impls, opt.Budget); err != nil {
		return nil, err
	}
	if opt.Probes {
		// The Figure 10 quantities: available data in the input stream
		// buffers of the RLSQ, DCT, and MC tasks.
		if err := s.ProbeSpace(name+"/rlsq.in", p("rlsq"), 0); err != nil {
			return nil, err
		}
		if err := s.ProbeSpace(name+"/dct.in", p("idct"), 0); err != nil {
			return nil, err
		}
		if err := s.ProbeSpace(name+"/mc.in", p("mc"), 1); err != nil {
			return nil, err
		}
	}
	return &DecodeApp{Name: name, Seq: seq, Graph: g, Sink: sink}, nil
}
