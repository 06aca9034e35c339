// Package mem models the Eclipse communication memories and buses.
//
// The paper's first instance (Section 6) uses a centralized wide on-chip
// SRAM for stream buffers: a 32 kB memory with a 128-bit data path,
// clocked at 300 MHz so it can serve separate read and write buses that
// each run at the 150 MHz coprocessor clock. Off-chip memory (for MPEG
// reference frames and incoming bit-streams) sits behind a system bus
// with much higher latency.
//
// A Memory couples byte-addressable backing storage with one or two Ports
// that model bus timing: bandwidth (bytes per cycle), transfer
// granularity (bus word width), and access latency. Functional content
// and timing are deliberately separate so that callers can move bytes
// exactly when the modeled transfer completes.
//
// Backing storage is demand-paged: a Memory holds a page table and
// allocates a page on the first Poke that touches it, so a 16 MiB
// off-chip DRAM of which a decode touches a few hundred KiB costs a few
// hundred KiB of host memory, not a 16 MiB zero-fill per System. Unwritten
// memory reads as zeros, exactly as a freshly made slice did.
package mem

import (
	"fmt"

	"eclipse/internal/sim"
)

// Config parameterizes a Memory. It covers both the on-chip stream SRAM
// (dual-port: separate read and write buses) and off-chip DRAM behind the
// system bus (single shared port, high latency).
type Config struct {
	Name         string
	Size         int    // backing storage size in bytes
	Width        int    // bus word width in bytes (paper: 16 = 128 bit)
	ReadLatency  uint64 // cycles from last beat of a read to data valid
	WriteLatency uint64 // cycles from last beat of a write to completion
	DualPort     bool   // separate read and write buses (on-chip SRAM)
}

// Fig8SRAM returns the configuration of the paper's first-instance
// communication memory: 32 kB, 128-bit data path, separate read and
// write buses. Latencies are in 150 MHz coprocessor cycles.
func Fig8SRAM() Config {
	return Config{
		Name:         "sram",
		Size:         32 * 1024,
		Width:        16,
		ReadLatency:  2,
		WriteLatency: 1,
		DualPort:     true,
	}
}

// Fig8DRAM returns a configuration for the off-chip memory reached over
// the system bus, used by the MC/ME coprocessor for reference frames and
// by the VLD for compressed input (Section 6).
func Fig8DRAM() Config {
	return Config{
		Name:         "dram",
		Size:         16 * 1024 * 1024,
		Width:        16,
		ReadLatency:  80,
		WriteLatency: 20,
		DualPort:     false,
	}
}

// pageSize is the granularity of the demand-paged backing store. It must
// be a power of two.
const pageSize = 4096

// Memory is byte-addressable storage behind one or two bandwidth- and
// latency-modeled ports.
type Memory struct {
	cfg Config
	k   *sim.Kernel
	// pages[i] backs [i*pageSize, (i+1)*pageSize); nil until first written.
	pages []*[pageSize]byte
	read  *Port
	write *Port
}

// New creates a memory attached to the kernel.
func New(k *sim.Kernel, cfg Config) *Memory {
	if cfg.Size <= 0 || cfg.Width <= 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	m := &Memory{cfg: cfg, k: k, pages: make([]*[pageSize]byte, (cfg.Size+pageSize-1)/pageSize)}
	m.read = newPort(k, cfg.Name+".rd", cfg.Width, cfg.ReadLatency)
	if cfg.DualPort {
		m.write = newPort(k, cfg.Name+".wr", cfg.Width, cfg.WriteLatency)
	} else {
		m.write = m.read // single shared bus: reads and writes contend
	}
	return m
}

// Size returns the backing storage size in bytes.
func (m *Memory) Size() int { return m.cfg.Size }

// Width returns the bus word width in bytes.
func (m *Memory) Width() int { return m.cfg.Width }

// ReadPort returns the port serving read transfers.
func (m *Memory) ReadPort() *Port { return m.read }

// WritePort returns the port serving write transfers. For single-port
// memories this is the same port as ReadPort.
func (m *Memory) WritePort() *Port { return m.write }

// Resident returns the number of bytes of backing storage actually
// allocated: pageSize for every page written so far. It is a diagnostic
// accessor for tests that pin the paged store's saving; the model itself
// never reads it.
func (m *Memory) Resident() int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n += pageSize
		}
	}
	return n
}

// span checks that [addr, addr+n) lies inside the memory. An access
// outside it is a model bug and panics, as an out-of-range slice would.
func (m *Memory) span(addr uint32, n int) {
	if int(addr)+n > m.cfg.Size {
		panic(fmt.Sprintf("mem: %s access [%d, %d) out of range (size %d)", m.cfg.Name, addr, int(addr)+n, m.cfg.Size))
	}
}

// Peek copies memory content without consuming simulated time. It is
// meant for test assertions and zero-time initialization.
func (m *Memory) Peek(addr uint32, buf []byte) {
	m.span(addr, len(buf))
	for off := int(addr); len(buf) > 0; {
		in := off & (pageSize - 1)
		n := min(len(buf), pageSize-in)
		if pg := m.pages[off/pageSize]; pg != nil {
			copy(buf[:n], pg[in:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// Poke stores memory content without consuming simulated time.
func (m *Memory) Poke(addr uint32, data []byte) {
	m.span(addr, len(data))
	for off := int(addr); len(data) > 0; {
		in := off & (pageSize - 1)
		n := min(len(data), pageSize-in)
		pg := m.pages[off/pageSize]
		if pg == nil {
			pg = new([pageSize]byte)
			m.pages[off/pageSize] = pg
		}
		copy(pg[in:], data[:n])
		data = data[n:]
		off += n
	}
}

// ReadAccess performs a timed read: it blocks the calling process for the
// queueing, transfer, and latency delays of the read port and then copies
// the data into buf.
func (m *Memory) ReadAccess(p *sim.Proc, addr uint32, buf []byte) {
	m.read.Access(p, addr, len(buf), m.cfg.ReadLatency)
	m.Peek(addr, buf)
}

// WriteAccess performs a timed write: it blocks the calling process for
// the queueing, transfer, and latency delays of the write port and then
// stores the data.
func (m *Memory) WriteAccess(p *sim.Proc, addr uint32, data []byte) {
	m.write.Access(p, addr, len(data), m.cfg.WriteLatency)
	m.Poke(addr, data)
}

// ScheduleRead books an asynchronous read transfer of n bytes at addr on
// the read port and runs done at the modeled completion cycle.
// It moves no bytes: done itself must Peek the data it wants.
// The zero-closure form exists for hot paths that reuse a pre-bound
// completion callback (the shells' pooled fetch requests, the framestore's
// prediction fetches) — the package's functional-content/timing split makes
// the caller-side copy safe.
func (m *Memory) ScheduleRead(addr uint32, n int, done func()) {
	m.read.AccessAsync(addr, n, m.cfg.ReadLatency, done)
}

// ScheduleWrite books an asynchronous write transfer of n bytes at addr
// on the write port and runs done at the modeled completion cycle.
// It moves no bytes: done itself must Poke the data, which by
// the package's content/timing split is exactly equivalent to storing at
// completion time. Zero-closure counterpart of ScheduleRead.
func (m *Memory) ScheduleWrite(addr uint32, n int, done func()) {
	m.write.AccessAsync(addr, n, m.cfg.WriteLatency, done)
}

// Port models one bus: a serializing server with a given transfer width.
// A request of n bytes starting at address a occupies the bus for as many
// beats (cycles) as the number of width-aligned bus words the transfer
// touches; the requester additionally waits the port latency after the
// last beat. Requests are served in arrival order, which the
// deterministic kernel makes reproducible.
type Port struct {
	k       *sim.Kernel
	name    string
	width   int
	latency uint64

	nextFree uint64 // first cycle at which a new transfer may start

	// statistics
	requests  uint64
	bytes     uint64
	busyBeats uint64
	waitSum   uint64 // total queueing wait across requests
}

func newPort(k *sim.Kernel, name string, width int, latency uint64) *Port {
	return &Port{k: k, name: name, width: width, latency: latency}
}

// Name returns the port name, e.g. "sram.rd".
func (pt *Port) Name() string { return pt.name }

// Beats returns the number of bus occupancy cycles for a transfer of n
// bytes starting at addr, accounting for alignment to the bus width.
func (pt *Port) Beats(addr uint32, n int) uint64 {
	if n <= 0 {
		return 0
	}
	first := int(addr) % pt.width
	return uint64((first + n + pt.width - 1) / pt.width)
}

// schedule books the transfer on the bus and returns its completion cycle.
// All four access paths meet here, so here a requester that ran ahead
// (sim.Proc.Advance) rejoins the kernel clock before it arbitrates.
func (pt *Port) schedule(addr uint32, n int, latency uint64) uint64 {
	pt.k.Sync()
	now := pt.k.Now()
	start := now
	if pt.nextFree > start {
		start = pt.nextFree
	}
	beats := pt.Beats(addr, n)
	if beats == 0 {
		beats = 1 // even an empty request occupies an arbitration slot
	}
	pt.nextFree = start + beats
	pt.requests++
	pt.bytes += uint64(n)
	pt.busyBeats += beats
	pt.waitSum += start - now
	return start + beats + latency
}

// Access blocks the calling process until a transfer of n bytes at addr
// completes.
func (pt *Port) Access(p *sim.Proc, addr uint32, n int, latency uint64) {
	done := pt.schedule(addr, n, latency)
	p.Delay(done - pt.k.Now())
}

// AccessAsync books a transfer and runs done at its completion cycle.
func (pt *Port) AccessAsync(addr uint32, n int, latency uint64, done func()) {
	at := pt.schedule(addr, n, latency)
	pt.k.Schedule(at-pt.k.Now(), done)
}

// Stats is a snapshot of port activity counters.
type Stats struct {
	Requests  uint64 // transfers served
	Bytes     uint64 // payload bytes moved
	BusyBeats uint64 // cycles the bus was occupied
	WaitSum   uint64 // total cycles requests spent queueing
}

// Stats returns the port's activity counters.
func (pt *Port) Stats() Stats {
	return Stats{Requests: pt.requests, Bytes: pt.bytes, BusyBeats: pt.busyBeats, WaitSum: pt.waitSum}
}

// Utilization returns the fraction of cycles in [0, now] during which the
// bus was occupied.
func (pt *Port) Utilization() float64 {
	now := pt.k.Now()
	if now == 0 {
		return 0
	}
	return float64(pt.busyBeats) / float64(now)
}
