package shell

import (
	"fmt"

	"eclipse/internal/sim"
)

// PIBus models the control bus of Section 5.4: all shell tables are
// memory mapped, and the main CPU reads measurement registers over a
// (slow, shared) peripheral bus. Reads are serialized with a fixed
// per-access occupancy, so heavy measurement traffic has a visible cost —
// the reason the paper samples in hardware and lets the CPU collect at
// coarse intervals.
type PIBus struct {
	k        *sim.Kernel
	cycles   uint64 // bus occupancy per register access
	nextFree uint64
	reads    uint64
	busy     uint64
}

// NewPIBus creates a control bus with the given per-access cost.
func NewPIBus(k *sim.Kernel, cyclesPerAccess uint64) *PIBus {
	if cyclesPerAccess == 0 {
		cyclesPerAccess = 4
	}
	return &PIBus{k: k, cycles: cyclesPerAccess}
}

// ReadReg charges one register access to the calling (CPU) process and
// returns the register value produced by fetch, evaluated at completion
// time.
func (b *PIBus) ReadReg(p *sim.Proc, fetch func() uint64) uint64 {
	p.Sync() // arbitrate at the caller's logical time
	start := b.k.Now()
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + b.cycles
	b.reads++
	b.busy += b.cycles
	p.Delay(b.nextFree - b.k.Now())
	return fetch()
}

// Stats returns total register reads and bus-busy cycles.
func (b *PIBus) Stats() (reads, busyCycles uint64) { return b.reads, b.busy }

// Utilization returns the fraction of elapsed cycles the bus was busy.
func (b *PIBus) Utilization() float64 {
	if b.k.Now() == 0 {
		return 0
	}
	return float64(b.busy) / float64(b.k.Now())
}

// RegSnapshot is one CPU-collected measurement sample (Section 5.4's
// "collect measurement data at regular time intervals").
type RegSnapshot struct {
	Cycle  uint64
	Values map[string]uint64
}

// Monitor is a CPU process that periodically reads a set of shell
// measurement registers over the PI bus.
type Monitor struct {
	Bus      *PIBus
	Interval uint64
	Regs     []MonitorReg
	Samples  []RegSnapshot

	stop bool
}

// MonitorReg names one memory-mapped measurement register.
type MonitorReg struct {
	Name  string
	Fetch func() uint64
}

// Start launches the monitor process. It samples until the simulation
// ends.
func (m *Monitor) Start(k *sim.Kernel) {
	if m.Interval == 0 {
		m.Interval = 4096
	}
	k.NewProc("pi-monitor", 0, func(p *sim.Proc) {
		for !m.stop {
			snap := RegSnapshot{Cycle: p.Now(), Values: map[string]uint64{}}
			for _, r := range m.Regs {
				snap.Values[r.Name] = m.Bus.ReadReg(p, r.Fetch)
			}
			m.Samples = append(m.Samples, snap)
			p.Delay(m.Interval)
		}
	})
}

// Stop ends sampling after the current interval. (The monitor process
// would otherwise keep the kernel from quiescing; the fabric's Stop on
// application completion also ends it.)
func (m *Monitor) Stop() { m.stop = true }

// Reg helpers for the measurement counters shells expose.

// TaskStepsReg returns a register reading a task's processing-step count.
func TaskStepsReg(sh *Shell, task int) MonitorReg {
	return MonitorReg{
		Name:  fmt.Sprintf("%s.task%d.steps", sh.Name(), task),
		Fetch: func() uint64 { return sh.tsks[task].stats.Steps },
	}
}

// StreamSpaceReg returns a register reading an access point's current
// space value (buffer filling for input ports).
func StreamSpaceReg(sh *Shell, task, port int) MonitorReg {
	return MonitorReg{
		Name:  fmt.Sprintf("%s.task%d.port%d.space", sh.Name(), task, port),
		Fetch: func() uint64 { return uint64(sh.Space(task, port)) },
	}
}

// IdleCyclesReg returns a register reading a shell's idle-cycle counter.
func IdleCyclesReg(sh *Shell) MonitorReg {
	return MonitorReg{
		Name:  sh.Name() + ".idle",
		Fetch: func() uint64 { return sh.IdleCycles() },
	}
}
