package eclipse

import (
	"bytes"
	"fmt"

	"eclipse/internal/copro"
	"eclipse/internal/kpn"
	"eclipse/internal/media"
)

// EncodeBuffers sets the stream buffer sizes (bytes) of an encode
// application.
type EncodeBuffers struct {
	Resid, Info, Coef, Tok, Rq, Qz, ICoef, Resid2, Fb int
}

// DefaultEncodeBuffers sizes an encode application at roughly 12.5 kB of
// stream memory, leaving room for simultaneous decoding in the 32 kB
// Figure 8 SRAM (the time-shift use case).
func DefaultEncodeBuffers() EncodeBuffers {
	return EncodeBuffers{
		Resid:  2048,
		Info:   512,
		Coef:   2048,
		Tok:    1536,
		Rq:     256,
		Qz:     2048,
		ICoef:  2048,
		Resid2: 2048,
		Fb:     16,
	}
}

// EncodeGraph builds the encoder process network: motion estimation →
// forward DCT → quantization, fanning out to the software VLE and to the
// reconstruction loop (inverse quantization → inverse DCT → motion-
// compensated reconstruction), closed by a frame-done feedback stream
// back to the ME. The decision stream is broadcast to both the quantizer
// and the VLE.
func EncodeGraph(name string, buf EncodeBuffers) *kpn.Graph {
	g := kpn.NewGraph(name)
	p := func(s string) string { return name + "-" + s }
	g.AddTask(p("me"), "me").AddOut("resid").AddOut("info").AddIn("fb")
	g.AddTask(p("fdct"), "fdct").AddIn("resid").AddOut("coef")
	g.AddTask(p("q"), "q").AddIn("coef").AddIn("info").AddOut("tok").AddOut("rq").AddOut("qz")
	g.AddTask(p("iq"), "iq").AddIn("qz").AddOut("icoef")
	g.AddTask(p("idct"), "idct").AddIn("icoef").AddOut("resid")
	g.AddTask(p("mcr"), "mcr").AddIn("rq").AddIn("resid").AddOut("fb")
	g.AddTask(p("vle"), "vle").AddIn("info").AddIn("tok")
	g.MustConnect(p("me")+".resid", buf.Resid, p("fdct")+".resid")
	g.MustConnect(p("me")+".info", buf.Info, p("q")+".info", p("vle")+".info")
	g.MustConnect(p("fdct")+".coef", buf.Coef, p("q")+".coef")
	g.MustConnect(p("q")+".tok", buf.Tok, p("vle")+".tok")
	g.MustConnect(p("q")+".rq", buf.Rq, p("mcr")+".rq")
	g.MustConnect(p("q")+".qz", buf.Qz, p("iq")+".qz")
	g.MustConnect(p("iq")+".icoef", buf.ICoef, p("idct")+".icoef")
	g.MustConnect(p("idct")+".resid", buf.Resid2, p("mcr")+".resid")
	g.MustConnect(p("mcr")+".fb", buf.Fb, p("me")+".fb")
	return g
}

// EncodeOptions customizes an encode application instance.
type EncodeOptions struct {
	Buffers *EncodeBuffers    // nil for defaults
	Mapping map[string]string // fn → coprocessor; nil for DefaultEncodeMapping
	Budget  uint64
	Probes  bool
}

// EncodeApp is one encode application mapped onto the instance.
type EncodeApp struct {
	Name  string
	Seq   media.SeqHeader
	Graph *kpn.Graph
	VLE   *copro.VLE
}

// Bitstream returns the coded output (valid after Run).
func (a *EncodeApp) Bitstream() []byte { return a.VLE.Bitstream() }

// VerifyAgainstReference encodes the same input with the monolithic
// reference encoder and requires bit-identical output — the strongest
// possible check that the staged, multi-tasking, cycle-accurate pipeline
// implements the same function.
func (a *EncodeApp) VerifyAgainstReference(cfg media.CodecConfig, frames []*media.Frame) error {
	want, _, _, err := media.Encode(cfg, frames)
	if err != nil {
		return err
	}
	got := a.Bitstream()
	if !bytes.Equal(got, want) {
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		at := n
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				at = i
				break
			}
		}
		return fmt.Errorf("eclipse: encoded stream differs from reference at byte %d (lengths %d vs %d)",
			at, len(got), len(want))
	}
	return nil
}

// AddEncodeApp loads raw video into off-chip memory, builds the encoder
// process network, and maps it onto the instance. The same coprocessors
// can simultaneously run decode applications (transcoding / time-shift).
func (s *System) AddEncodeApp(name string, cfg media.CodecConfig, frames []*media.Frame, opt EncodeOptions) (*EncodeApp, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("eclipse: %s: no input frames", name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("eclipse: %s: %w", name, err)
	}
	seq := media.SeqHeader{
		MBCols: cfg.W / media.MBSize, MBRows: cfg.H / media.MBSize,
		Q: cfg.Q, GOPN: cfg.GOPN, GOPM: cfg.GOPM, Frames: len(frames),
		HalfPel: cfg.HalfPel,
	}
	bufs := DefaultEncodeBuffers()
	if opt.Buffers != nil {
		bufs = *opt.Buffers
	}
	mapping := DefaultEncodeMapping
	if opt.Mapping != nil {
		mapping = opt.Mapping
	}
	g := EncodeGraph(name, bufs)

	rawBase, err := s.AllocDRAM(len(frames) * cfg.W * cfg.H)
	if err != nil {
		return nil, err
	}
	raw, err := copro.NewRawStore(s.DRAM, rawBase, frames)
	if err != nil {
		return nil, err
	}
	fsBase, err := s.AllocDRAM(3 * cfg.W * cfg.H)
	if err != nil {
		return nil, err
	}
	fs, err := copro.NewFramestore(s.DRAM, cfg.W, cfg.H, fsBase)
	if err != nil {
		return nil, err
	}

	costs := &s.Arch.Costs
	blocks := len(frames) * seq.MBCount() * media.BlocksPerMB
	vle := &copro.VLE{Costs: costs, Seq: seq}
	p := func(n string) string { return name + "-" + n }
	impls := map[string]copro.Task{
		p("me"):   &copro.ME{Costs: costs, Cfg: cfg, Raw: raw, FS: fs},
		p("fdct"): &copro.FDCT{Costs: costs, Blocks: blocks},
		p("q"):    &copro.Q{Costs: costs, Seq: seq},
		p("iq"):   &copro.IQ{Costs: costs, QParam: cfg.Q, Blocks: blocks},
		p("idct"): &copro.IDCT{Costs: costs, Blocks: blocks},
		p("mcr"):  &copro.MCR{Costs: costs, Seq: seq, FS: fs},
		p("vle"):  vle,
	}
	if err := s.MapGraph(g, mapping, impls, opt.Budget); err != nil {
		return nil, err
	}
	if opt.Probes {
		if err := s.ProbeSpace(name+"/fdct.in", p("fdct"), 0); err != nil {
			return nil, err
		}
		if err := s.ProbeSpace(name+"/q.in", p("q"), 0); err != nil {
			return nil, err
		}
		if err := s.ProbeSpace(name+"/mcr.in", p("mcr"), 1); err != nil {
			return nil, err
		}
	}
	return &EncodeApp{Name: name, Seq: seq, Graph: g, VLE: vle}, nil
}
