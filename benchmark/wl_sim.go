package main

import (
	"fmt"

	"eclipse"
	"eclipse/internal/media"
)

// fig10Cycles is the pinned simulated cycle count of the paper's Fig. 10
// clip (QCIF, 12 frames, IBBP, source seed 1), which is clip 0 of -seed 1.
const fig10Cycles = 478139

// simWorkload is sim_fig10: closed loop, one caller, op = the cycle-accurate
// Fig. 10 decode of a pre-encoded clip. serve and cluster do no work here.
// A block runs each clip once; clip 0 of -seed 1 is the paper's sequence.
type simWorkload struct {
	seed int64
	sz   sizes

	clips []simClip
	last  *eclipse.Fig10Result
}

type simClip struct {
	stream         []byte
	cycles, events uint64 // the reference run's; every op must repeat them
}

func (w *simWorkload) setup(step stepFn) error {
	w.clips = make([]simClip, w.sz.simClips)
	for i := range w.clips {
		c := &w.clips[i]
		if err := step(func() (err error) {
			c.stream, err = encodeClip(clipSpec{w.sz.w, w.sz.h, w.sz.frames, 12, 3}, clipSeed(w.seed, i))
			return err
		}); err != nil {
			return err
		}
		if err := step(func() error {
			res, err := eclipse.RunFig10Stream(c.stream)
			if err != nil {
				return err
			}
			c.cycles, c.events = res.Cycles, res.Events
			if i == 0 && w.seed == 1 && w.sz.w == fullSizes.w && c.cycles != fig10Cycles {
				return fmt.Errorf("fig10 clip simulated %d cycles, pinned %d", c.cycles, fig10Cycles)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) fig10(op int) (bool, error) {
	c := &w.clips[op%len(w.clips)]
	res, err := eclipse.RunFig10Stream(c.stream)
	if err != nil {
		return false, err
	}
	w.last = res
	return res.Cycles == c.cycles && res.Events == c.events && res.App.VerifyAgainstReference(c.stream) == nil, nil
}

func (w *simWorkload) runBlock() blockResult {
	return closedLoop(1, len(w.clips), func(_, i int) bool {
		ok, err := w.fig10(i)
		return ok && err == nil
	})
}

func (w *simWorkload) corrupt() { w.clips[0].cycles++ }

func (w *simWorkload) ladder() ([]rung, int, error) {
	stream := func(op int) []byte { return w.clips[op%len(w.clips)].stream }
	return []rung{
		{"eclipse.fig10", func(op int) error { _, err := w.fig10(op); return err }},
		{"eclipse.functional", func(op int) error {
			_, err := eclipse.RunFunctionalDecode(stream(op), eclipse.DefaultDecodeBuffers())
			return err
		}},
		{"media.decode", func(op int) error {
			_, err := media.DecodeWithOptions(stream(op), media.DecodeOptions{Workers: 1})
			return err
		}},
	}, w.sz.ladderOps["sim_fig10"], nil
}

func (w *simWorkload) layerMetrics(lad *ladderResult, out metricSet) error {
	// The counters below are clip 0's: sim.cycles of -seed 1 is the pinned 478139.
	if _, err := w.fig10(0); err != nil {
		return err
	}
	res, stream := w.last, w.clips[0].stream
	out.put("sim.cycles", float64(res.Cycles), "cycles")
	out.put("sim.events", float64(res.Events), "count")
	out.put("sim.mevents_per_s", float64(res.Events)/lad.p50Ms["eclipse.fig10"]/1e3, "Mevents/s")
	out.put("sim.timed_self_ms", lad.selfMs["eclipse.fig10"], "ms")
	out.put("kpn.functional_self_ms", lad.selfMs["eclipse.functional"], "ms")

	// The paper's Fig. 10 finding: the bottleneck rotates with the frame type.
	rotation := 0
	for t, stage := range map[media.FrameType]string{media.FrameI: "rlsq", media.FrameP: "dct", media.FrameB: "mc"} {
		if res.MajorityBottleneck(t) == stage {
			rotation++
		}
	}
	out.put("copro.bottleneck_ok", float64(rotation), "count")

	// Shell counters need the System, which RunFig10Stream keeps to itself.
	sys := eclipse.NewSystem(eclipse.Fig8())
	defer sys.Shutdown()
	bufs := eclipse.DefaultDecodeBuffers()
	if _, err := sys.AddDecodeApp("dec", stream, eclipse.DecodeOptions{Buffers: &bufs}); err != nil {
		return err
	}
	if _, err := sys.Run(10_000_000_000); err != nil {
		return err
	}
	var rdHit, rdAll, wrHit, wrAll uint64
	for _, n := range sys.CoproNames() {
		rd, wr := sys.Shell(n).ReadCacheStats(), sys.Shell(n).WriteCacheStats()
		rdHit, rdAll = rdHit+rd.Hits, rdAll+rd.Accesses()
		wrHit, wrAll = wrHit+wr.Hits, wrAll+wr.Accesses()
	}
	out.put("shell.read_hit_ratio", ratio(rdHit, rdAll), "ratio")
	out.put("shell.write_hit_ratio", ratio(wrHit, wrAll), "ratio")
	utilMin, utilMax := 1.0, 0.0
	for _, u := range sys.Utilizations() {
		utilMin, utilMax = min(utilMin, u.Busy), max(utilMax, u.Busy)
	}
	out.put("shell.util_min", utilMin, "ratio")
	out.put("shell.util_max", utilMax, "ratio")
	return nil
}

func (w *simWorkload) close() {}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
