package eclipse

import (
	"fmt"

	"eclipse/internal/copro"
	"eclipse/internal/kpn"
	"eclipse/internal/mem"
	"eclipse/internal/shell"
	"eclipse/internal/sim"
	"eclipse/internal/trace"
)

// System is an assembled Eclipse instance: kernel, memories, shells, and
// the applications mapped onto it. Create one per simulation run.
type System struct {
	Arch Arch

	K         *sim.Kernel
	Fab       *shell.Fabric
	SRAM      *mem.Memory
	DRAM      *mem.Memory
	Collector *trace.Collector

	copros     map[string]*copro.Coprocessor
	coproOrder []string           // creation order, for deterministic process start
	tasks      map[string]taskRef // graph task name → placement
	taskOrder  []string           // mapping order, for deterministic monitors
	monitors   []*shell.Monitor
	dramAlloc  uint32
	started    bool
}

type taskRef struct {
	cp *copro.Coprocessor
	id int
}

// NewSystem builds an empty instance of the architecture.
func NewSystem(arch Arch) *System {
	k := sim.NewKernel()
	sram := mem.New(k, arch.SRAM)
	dram := mem.New(k, arch.DRAM)
	fab := shell.NewFabric(k, sram)
	if arch.DistributedStreams {
		fab.EnableDistributed(mem.Config{
			Width:        arch.SRAM.Width,
			ReadLatency:  1,
			WriteLatency: 1,
			DualPort:     true,
		})
	}
	return &System{
		Arch:      arch,
		K:         k,
		Fab:       fab,
		SRAM:      sram,
		DRAM:      dram,
		Collector: trace.NewCollector(k, arch.SampleInterval),
		copros:    map[string]*copro.Coprocessor{},
		tasks:     map[string]taskRef{},
	}
}

// Copro returns (lazily creating) the named coprocessor.
func (s *System) Copro(name string) *copro.Coprocessor {
	if cp, ok := s.copros[name]; ok {
		return cp
	}
	cp := copro.NewCoprocessor(s.Fab.NewShell(s.Arch.shellConfig(name)))
	s.copros[name] = cp
	s.coproOrder = append(s.coproOrder, name)
	return cp
}

// CoproNames returns the names of the instantiated coprocessors, in no
// particular order.
func (s *System) CoproNames() []string {
	names := make([]string, 0, len(s.copros))
	for n := range s.copros {
		names = append(names, n)
	}
	return names
}

// Shell returns the named coprocessor's shell (for measurements).
func (s *System) Shell(name string) *shell.Shell {
	return s.Copro(name).Shell()
}

// AllocDRAM reserves n bytes of off-chip memory (bit-streams, frame
// stores, raw video).
func (s *System) AllocDRAM(n int) (uint32, error) {
	base := (s.dramAlloc + 63) / 64 * 64
	if int(base)+n > s.DRAM.Size() {
		return 0, fmt.Errorf("eclipse: off-chip memory exhausted (%d + %d > %d)", base, n, s.DRAM.Size())
	}
	s.dramAlloc = base + uint32(n)
	return base, nil
}

// MapGraph maps a validated Kahn graph onto the instance: every task goes
// to the coprocessor mapping[task.Fn] with the implementation
// impls[task.Name], and every stream becomes a buffer in the on-chip SRAM
// with access points in the owning shells. budget is the per-task
// weighted-round-robin budget in cycles (0 for the default).
func (s *System) MapGraph(g *kpn.Graph, mapping map[string]string, impls map[string]copro.Task, budget uint64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, t := range g.Tasks {
		cname, ok := mapping[t.Fn]
		if !ok {
			return fmt.Errorf("eclipse: no coprocessor mapping for function %q (task %s)", t.Fn, t.Name)
		}
		impl, ok := impls[t.Name]
		if !ok || impl == nil {
			return fmt.Errorf("eclipse: no implementation for task %s", t.Name)
		}
		cp := s.Copro(cname)
		id := cp.Shell().AddTask(t.Name, t.Info, budget)
		cp.Install(id, impl)
		s.tasks[t.Name] = taskRef{cp: cp, id: id}
		s.taskOrder = append(s.taskOrder, t.Name)
	}
	for _, st := range g.Streams {
		prod, err := s.endpoint(g, st.From)
		if err != nil {
			return err
		}
		cons := make([]shell.Endpoint, 0, len(st.To))
		for _, c := range st.To {
			ep, err := s.endpoint(g, c)
			if err != nil {
				return err
			}
			cons = append(cons, ep)
		}
		if err := s.Fab.Connect(prod, cons, uint32(st.BufBytes)); err != nil {
			return fmt.Errorf("eclipse: stream %s: %w", st.Name, err)
		}
	}
	return nil
}

// endpoint resolves a graph port reference to a shell endpoint. The port
// id is the port's position in the task's declaration order, which must
// follow the coprocessor model's canonical port order.
func (s *System) endpoint(g *kpn.Graph, ref kpn.PortRef) (shell.Endpoint, error) {
	tr, ok := s.tasks[ref.Task]
	if !ok {
		return shell.Endpoint{}, fmt.Errorf("eclipse: task %s not mapped", ref.Task)
	}
	t := g.Task(ref.Task)
	for i, p := range t.Ports {
		if p.Name == ref.Port {
			return shell.Endpoint{Shell: tr.cp.Shell(), Task: tr.id, Port: i}, nil
		}
	}
	return shell.Endpoint{}, fmt.Errorf("eclipse: port %s not found", ref)
}

// TaskPlace returns the coprocessor name and task id a graph task was
// mapped to.
func (s *System) TaskPlace(taskName string) (copro string, id int, err error) {
	tr, ok := s.tasks[taskName]
	if !ok {
		return "", 0, fmt.Errorf("eclipse: task %s not mapped", taskName)
	}
	return tr.cp.Shell().Name(), tr.id, nil
}

// TaskStats returns the shell measurement counters of a mapped task.
func (s *System) TaskStats(taskName string) (shell.TaskStats, error) {
	tr, ok := s.tasks[taskName]
	if !ok {
		return shell.TaskStats{}, fmt.Errorf("eclipse: task %s not mapped", taskName)
	}
	return tr.cp.Shell().TaskStats(tr.id), nil
}

// StreamStats returns the access-point counters of a mapped task's port
// (by canonical port id).
func (s *System) StreamStats(taskName string, port int) (shell.StreamStats, error) {
	tr, ok := s.tasks[taskName]
	if !ok {
		return shell.StreamStats{}, fmt.Errorf("eclipse: task %s not mapped", taskName)
	}
	return tr.cp.Shell().StreamStats(tr.id, port), nil
}

// ProbeSpace registers a trace probe sampling the space value (available
// data or room) of a mapped task's port, the quantity Figure 10 plots.
func (s *System) ProbeSpace(name, taskName string, port int) error {
	tr, ok := s.tasks[taskName]
	if !ok {
		return fmt.Errorf("eclipse: task %s not mapped", taskName)
	}
	sh := tr.cp.Shell()
	id := tr.id
	s.Collector.Add(name, func() float64 { return float64(sh.Space(id, port)) })
	return nil
}

// ProbeUtilization registers a trace probe sampling a coprocessor's busy
// fraction per sample interval.
func (s *System) ProbeUtilization(name, coproName string) {
	sh := s.Shell(coproName)
	interval := float64(s.Collector.Interval())
	idle := trace.DeltaProbe(sh.IdleCycles, 1)
	s.Collector.Add(name, func() float64 {
		u := 1 - idle()/interval
		if u < 0 {
			return 0
		}
		return u
	})
}

// AddPIMonitor attaches a CPU-side measurement monitor (paper Section
// 5.4): a process that, every interval cycles, reads the memory-mapped
// measurement registers of every mapped task over the PI control bus —
// per-shell idle counters, per-task step counts, and input-port space
// values. Call before Run; read Samples after.
func (s *System) AddPIMonitor(interval uint64) *shell.Monitor {
	m := &shell.Monitor{Bus: shell.NewPIBus(s.K, 4), Interval: interval}
	for _, name := range s.coproOrder {
		m.Regs = append(m.Regs, shell.IdleCyclesReg(s.Shell(name)))
	}
	for _, name := range s.taskOrder {
		tr := s.tasks[name]
		m.Regs = append(m.Regs, shell.TaskStepsReg(tr.cp.Shell(), tr.id))
	}
	s.monitors = append(s.monitors, m)
	return m
}

// Run starts every coprocessor and the measurement sampler, then runs the
// simulation until all tasks finish, the cycle limit is hit (0 = none),
// or a failure (application deadlock, protocol violation) occurs. It
// returns the final cycle count.
func (s *System) Run(limit uint64) (uint64, error) {
	if !s.started {
		s.started = true
		for _, name := range s.coproOrder {
			s.copros[name].Start(s.K)
		}
		for _, m := range s.monitors {
			m.Start(s.K)
		}
		s.Collector.Start()
	}
	err := s.K.Run(limit)
	return s.K.Now(), err
}

// Shutdown releases any process goroutines left parked by a Run call that
// returned a *sim.LimitError pause (every other Run outcome shuts the
// kernel down automatically). It is idempotent and safe to defer
// unconditionally next to NewSystem.
func (s *System) Shutdown() { s.K.Shutdown() }
