package copro

import (
	"bytes"
	"errors"
	"testing"

	"eclipse/internal/media"
	"eclipse/internal/mem"
	"eclipse/internal/shell"
	"eclipse/internal/sim"
)

// rig is a mini-fabric for driving one model task with scripted
// producers/consumers on the opposite ends of its streams.
type rig struct {
	k    *sim.Kernel
	fab  *shell.Fabric
	dram *mem.Memory
}

func newRig() *rig {
	k := sim.NewKernel()
	return &rig{
		k:    k,
		fab:  shell.NewFabric(k, mem.New(k, mem.Fig8SRAM())),
		dram: mem.New(k, mem.Fig8DRAM()),
	}
}

// feeder writes a byte slice into its single output port in chunks.
type feeder struct {
	data  []byte
	chunk int
	sent  int
}

func (f *feeder) Step(c *Ctx) bool {
	n := f.chunk
	if f.sent+n > len(f.data) {
		n = len(f.data) - f.sent
	}
	if n == 0 {
		return true
	}
	if !c.GetSpace(0, uint32(n)) {
		return false
	}
	c.Write(0, 0, f.data[f.sent:f.sent+n])
	c.PutSpace(0, uint32(n))
	f.sent += n
	return f.sent == len(f.data)
}

// drain consumes everything from its single input port until the target
// byte count arrives.
type drain struct {
	want  int
	chunk int
	got   bytes.Buffer
}

func (d *drain) Step(c *Ctx) bool {
	n := d.chunk
	if rem := d.want - d.got.Len(); n > rem {
		n = rem
	}
	if n == 0 {
		return true
	}
	if !c.GetSpace(0, uint32(n)) {
		return false
	}
	buf := make([]byte, n)
	c.Read(0, 0, buf)
	c.PutSpace(0, uint32(n))
	d.got.Write(buf)
	return d.got.Len() == d.want
}

// start wires a single-task coprocessor for each installed model.
func (r *rig) start(models map[string]Task, streams []struct {
	from, to string
	buf      uint32
}) map[string]*shell.Shell {
	shells := map[string]*shell.Shell{}
	tasks := map[string]int{}
	copros := map[string]*Coprocessor{}
	ports := map[string]int{} // next port id per task
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	// Deterministic order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		sh := r.fab.NewShell(shell.DefaultConfig(n))
		shells[n] = sh
		tasks[n] = sh.AddTask(n, 0, 0)
		cp := NewCoprocessor(sh)
		cp.Install(tasks[n], models[n])
		copros[n] = cp
	}
	for _, st := range streams {
		prod := shell.Endpoint{Shell: shells[st.from], Task: tasks[st.from], Port: ports[st.from]}
		ports[st.from]++
		cons := shell.Endpoint{Shell: shells[st.to], Task: tasks[st.to], Port: ports[st.to]}
		ports[st.to]++
		if err := r.fab.Connect(prod, []shell.Endpoint{cons}, st.buf); err != nil {
			panic(err)
		}
	}
	for _, n := range names {
		copros[n].Start(r.k)
	}
	return shells
}

func TestIDCTModelTransformsBlocks(t *testing.T) {
	r := newRig()
	costs := DefaultCosts()

	// Two blocks of known coefficients.
	var b1, b2 media.Block
	b1[0] = 400 // DC
	b2[1] = 123
	var payload []byte
	payload = media.AppendBlock(payload, &b1)
	payload = media.AppendBlock(payload, &b2)

	idct := &IDCT{Costs: &costs, Blocks: 2}
	sink := &drain{want: 2 * media.BlockBytes, chunk: media.BlockBytes}
	r.start(map[string]Task{
		"feed": &feeder{data: payload, chunk: media.BlockBytes},
		"idct": idct,
		"sink": sink,
	}, []struct {
		from, to string
		buf      uint32
	}{
		{"feed", "idct", 512},
		{"idct", "sink", 512},
	})
	if err := r.k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	var want1, want2, got media.Block
	media.IDCT(&b1, &want1)
	media.IDCT(&b2, &want2)
	if err := media.ParseBlock(sink.got.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got != want1 {
		t.Fatal("block 1 mismatch")
	}
	if err := media.ParseBlock(sink.got.Bytes()[media.BlockBytes:], &got); err != nil {
		t.Fatal(err)
	}
	if got != want2 {
		t.Fatal("block 2 mismatch")
	}
}

func TestFDCTAndIQModelsInverts(t *testing.T) {
	// feeder → fdct → iq-like chain is exercised in the encode app; here
	// check FDCT output directly.
	r := newRig()
	costs := DefaultCosts()
	var src media.Block
	for i := range src {
		src[i] = int16(i - 32)
	}
	fdct := &FDCT{Costs: &costs, Blocks: 1}
	sink := &drain{want: media.BlockBytes, chunk: media.BlockBytes}
	r.start(map[string]Task{
		"feed": &feeder{data: media.AppendBlock(nil, &src), chunk: media.BlockBytes},
		"fdct": fdct,
		"sink": sink,
	}, []struct {
		from, to string
		buf      uint32
	}{
		{"feed", "fdct", 256},
		{"fdct", "sink", 256},
	})
	if err := r.k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	var want, got media.Block
	media.FDCT(&src, &want)
	if err := media.ParseBlock(sink.got.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("FDCT mismatch")
	}
}

// TestVLDModelEmitsHostParsedRecords drives the VLD coprocessor with a
// real bitstream through a tiny input buffer and compares its two output
// streams record-for-record with host-side parsing.
func TestVLDModelEmitsHostParsedRecords(t *testing.T) {
	cfg := media.DefaultCodec(48, 32)
	src := media.NewSource(media.DefaultSource(48, 32))
	stream, _, _, err := media.Encode(cfg, src.Frames(3))
	if err != nil {
		t.Fatal(err)
	}
	// Host-side expectation.
	var wantTok, wantHdr []byte
	v := media.NewStreamVLD()
	v.Extend(stream)
	for {
		ev, err := v.Next()
		if err != nil {
			t.Fatal(err)
		}
		done := false
		switch ev.Kind {
		case media.EventFrame:
			wantTok = media.AppendFrameRec(wantTok, media.FrameRecTok, ev.Frame)
			wantHdr = media.AppendFrameRec(wantHdr, media.FrameRecHdr, ev.Frame)
		case media.EventMB:
			wantTok = media.AppendTokenMB(wantTok, &ev.Tok)
			wantHdr = media.AppendMBHeader(wantHdr, ev.MB)
		case media.EventEnd:
			done = true
		}
		if done {
			break
		}
	}

	costs := DefaultCosts()
	r := newRig()
	vld := &VLD{Costs: &costs, Chunk: 32}
	tokSink := &drain{want: len(wantTok), chunk: 64}
	hdrSink := &drain{want: len(wantHdr), chunk: 13}
	r.start(map[string]Task{
		"feed": &feeder{data: stream, chunk: 48},
		"vld":  vld,
		"tok":  tokSink,
		"hdr":  hdrSink,
	}, []struct {
		from, to string
		buf      uint32
	}{
		{"feed", "vld", 128}, // port 0: bits in
		{"vld", "tok", 1024}, // port 1: tok out
		{"vld", "hdr", 128},  // port 2: hdr out
	})
	if err := r.k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tokSink.got.Bytes(), wantTok) {
		t.Fatal("token stream differs from host parsing")
	}
	if !bytes.Equal(hdrSink.got.Bytes(), wantHdr) {
		t.Fatal("header stream differs from host parsing")
	}
}

// TestBitSourceTail checks the short final chunk and completion.
func TestBitSourceTail(t *testing.T) {
	r := newRig()
	costs := DefaultCosts()
	data := make([]byte, 100) // not a multiple of the 32-byte chunk
	for i := range data {
		data[i] = byte(i)
	}
	r.dram.Poke(64, data)
	src := &BitSource{Costs: &costs, DRAM: r.dram, Addr: 64, Len: len(data), Chunk: 32}
	sink := &drain{want: len(data), chunk: 10}
	r.start(map[string]Task{"src": src, "sink": sink}, []struct {
		from, to string
		buf      uint32
	}{{"src", "sink", 64}})
	if err := r.k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.got.Bytes(), data) {
		t.Fatal("bitstream content mangled")
	}
}

// TestRLSQModelReexecutesOnDeniedOutput forces the RLSQ to abort its
// processing step on a full output buffer and re-execute later without
// duplicating or losing records.
func TestRLSQModelReexecutesOnDeniedOutput(t *testing.T) {
	cfg := media.DefaultCodec(32, 32)
	src := media.NewSource(media.DefaultSource(32, 32))
	stream, _, _, err := media.Encode(cfg, src.Frames(2))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	// Host-side tok stream and expected coef stream.
	var tokBytes []byte
	var wantCoef []byte
	v := media.NewStreamVLD()
	v.Extend(stream)
	for {
		ev, verr := v.Next()
		if verr != nil {
			t.Fatal(verr)
		}
		stop := false
		switch ev.Kind {
		case media.EventFrame:
			tokBytes = media.AppendFrameRec(tokBytes, media.FrameRecTok, ev.Frame)
		case media.EventMB:
			tokBytes = media.AppendTokenMB(tokBytes, &ev.Tok)
			var coef [media.BlocksPerMB]media.Block
			if err := media.RLSQDecodeMB(&ev.Tok, seq.Q, &coef); err != nil {
				t.Fatal(err)
			}
			wantCoef = media.AppendMBBlocks(wantCoef, &coef)
		case media.EventEnd:
			stop = true
		}
		if stop {
			break
		}
	}

	costs := DefaultCosts()
	r := newRig()
	rlsq := &RLSQ{Costs: &costs, Seq: seq}
	// A coef buffer of exactly one record guarantees output denials while
	// the previous record is still unconsumed.
	sink := &drain{want: len(wantCoef), chunk: media.MBCoefBytes}
	r.start(map[string]Task{
		"feed": &feeder{data: tokBytes, chunk: 96},
		"rlsq": rlsq,
		"sink": sink,
	}, []struct {
		from, to string
		buf      uint32
	}{
		{"feed", "rlsq", 1024},
		{"rlsq", "sink", media.MBCoefBytes},
	})
	if err := r.k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.got.Bytes(), wantCoef) {
		t.Fatal("coefficient stream differs after re-executed steps")
	}
	// The point of the test: denials must actually have occurred.
	// (They are visible in the rlsq shell's stream stats.)
}

// TestVLDModelCorruptStreamFailsLoudly ensures garbage input surfaces as
// a simulation failure (coprocessor panic → kernel error), not silence.
func TestVLDModelCorruptStreamFailsLoudly(t *testing.T) {
	costs := DefaultCosts()
	r := newRig()
	garbage := bytes.Repeat([]byte{0xDE, 0xAD}, 64)
	vld := &VLD{Costs: &costs, Chunk: 16}
	tokSink := &drain{want: 1 << 20, chunk: 16}
	hdrSink := &drain{want: 1 << 20, chunk: 16}
	r.start(map[string]Task{
		"feed": &feeder{data: garbage, chunk: 16},
		"vld":  vld,
		"tok":  tokSink,
		"hdr":  hdrSink,
	}, []struct {
		from, to string
		buf      uint32
	}{
		{"feed", "vld", 64},
		{"vld", "tok", 256},
		{"vld", "hdr", 64},
	})
	err := r.k.Run(10_000_000)
	if err == nil {
		t.Fatal("corrupt stream went unnoticed")
	}
	var limit *sim.LimitError
	if errors.As(err, &limit) {
		t.Fatalf("corrupt stream only hit the cycle limit: %v", err)
	}
}
