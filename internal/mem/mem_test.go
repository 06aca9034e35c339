package mem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"eclipse/internal/sim"
)

func testCfg() Config {
	return Config{Name: "m", Size: 4096, Width: 16, ReadLatency: 2, WriteLatency: 1, DualPort: true}
}

func TestPeekPoke(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testCfg())
	want := []byte{1, 2, 3, 4, 5}
	m.Poke(100, want)
	got := make([]byte, 5)
	m.Peek(100, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestPagedBackingStore(t *testing.T) {
	// Pages appear on first write; everything else reads as zeros. The
	// size is deliberately not a page multiple so the last page is partial.
	const size = 3*pageSize + 100
	cfg := testCfg()
	cfg.Size = size
	m := New(sim.NewKernel(), cfg)
	if m.Size() != size || m.Resident() != 0 {
		t.Fatalf("fresh memory: Size %d Resident %d, want %d and 0", m.Size(), m.Resident(), size)
	}

	// Never-written memory is zero, and reading it allocates nothing.
	all := bytes.Repeat([]byte{0xAA}, size)
	m.Peek(0, all)
	if !bytes.Equal(all, make([]byte, size)) {
		t.Fatal("Peek over never-written memory returned non-zero bytes")
	}
	if m.Resident() != 0 {
		t.Fatalf("Peek made %d bytes resident", m.Resident())
	}

	// A write straddling a page boundary round-trips, makes exactly the two
	// touched pages resident, and leaves its neighbours zero.
	want := []byte{1, 2, 3, 4, 5, 6}
	m.Poke(2*pageSize-3, want)
	got := make([]byte, len(want)+2)
	m.Peek(2*pageSize-4, got)
	if !bytes.Equal(got, append(append([]byte{0}, want...), 0)) {
		t.Fatalf("across the page boundary: got %v", got)
	}
	if m.Resident() != 2*pageSize {
		t.Fatalf("Resident = %d after a two-page write, want %d", m.Resident(), 2*pageSize)
	}

	// The last byte is addressable; one past it is not.
	m.Poke(size-1, []byte{9})
	last := make([]byte, 1)
	m.Peek(size-1, last)
	if last[0] != 9 {
		t.Fatalf("byte at Size()-1 = %d, want 9", last[0])
	}
	m.Peek(size, nil) // empty access at the very end stays legal
	for name, access := range map[string]func(){
		"Peek past end":     func() { m.Peek(size-1, make([]byte, 2)) },
		"Poke past end":     func() { m.Poke(size-1, []byte{1, 2}) },
		"Peek beyond range": func() { m.Peek(size+pageSize, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			access()
		}()
	}
}

func TestBeatsAlignment(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testCfg())
	pt := m.ReadPort()
	cases := []struct {
		addr uint32
		n    int
		want uint64
	}{
		{0, 16, 1},   // exactly one aligned word
		{0, 17, 2},   // spills into second word
		{15, 2, 2},   // crosses a word boundary
		{15, 1, 1},   // last byte of a word
		{16, 16, 1},  // aligned
		{8, 16, 2},   // misaligned full word
		{0, 1, 1},    // single byte
		{0, 0, 0},    // empty
		{3, 64, 5},   // 3+64=67 -> 5 words
		{0, 256, 16}, // long burst
	}
	for _, c := range cases {
		if got := pt.Beats(c.addr, c.n); got != c.want {
			t.Errorf("Beats(%d,%d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestQuickBeatsBounds(t *testing.T) {
	// Property: for n>0, beats is within [ceil(n/width), ceil(n/width)+1]
	// and covers at least n bytes of bus capacity.
	k := sim.NewKernel()
	m := New(k, testCfg())
	pt := m.ReadPort()
	f := func(addr uint16, n uint16) bool {
		nn := int(n%1024) + 1
		b := pt.Beats(uint32(addr), nn)
		lo := uint64((nn + 15) / 16)
		return b >= lo && b <= lo+1 && b*16 >= uint64(nn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimedReadLatency(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testCfg())
	m.Poke(0, []byte{0xAA})
	var took uint64
	buf := make([]byte, 16)
	k.NewProc("r", 0, func(p *sim.Proc) {
		t0 := p.Now()
		m.ReadAccess(p, 0, buf) // 1 beat + 2 latency = 3 cycles
		took = p.Now() - t0
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if took != 3 {
		t.Fatalf("read took %d cycles, want 3", took)
	}
	if buf[0] != 0xAA {
		t.Fatalf("data not transferred")
	}
}

func TestPortSerializesContendingRequests(t *testing.T) {
	// Two processes reading 4 words each at cycle 0 must queue behind one
	// another on the shared read bus: second finishes 4 beats later.
	k := sim.NewKernel()
	m := New(k, testCfg())
	var end [2]uint64
	for i := 0; i < 2; i++ {
		i := i
		k.NewProc("r", 0, func(p *sim.Proc) {
			buf := make([]byte, 64)
			m.ReadAccess(p, 0, buf)
			end[i] = p.Now()
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// first: 4 beats + 2 lat = 6; second starts at 4: 8 beats total + 2 = 10
	if end[0] != 6 || end[1] != 10 {
		t.Fatalf("ends = %v, want [6 10]", end)
	}
}

func TestDualPortReadsAndWritesDoNotContend(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testCfg())
	var rEnd, wEnd uint64
	k.NewProc("r", 0, func(p *sim.Proc) {
		buf := make([]byte, 16)
		m.ReadAccess(p, 0, buf)
		rEnd = p.Now()
	})
	k.NewProc("w", 0, func(p *sim.Proc) {
		m.WriteAccess(p, 256, make([]byte, 16))
		wEnd = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rEnd != 3 || wEnd != 2 {
		t.Fatalf("rEnd=%d wEnd=%d, want 3 and 2", rEnd, wEnd)
	}
}

func TestSinglePortSharedContention(t *testing.T) {
	cfg := testCfg()
	cfg.DualPort = false
	k := sim.NewKernel()
	m := New(k, cfg)
	if m.ReadPort() != m.WritePort() {
		t.Fatal("single-port memory must share one bus")
	}
	var rEnd, wEnd uint64
	k.NewProc("r", 0, func(p *sim.Proc) {
		buf := make([]byte, 16)
		m.ReadAccess(p, 0, buf)
		rEnd = p.Now()
	})
	k.NewProc("w", 0, func(p *sim.Proc) {
		m.WriteAccess(p, 256, make([]byte, 16))
		wEnd = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// r books beat 0 (done 0+1+2=3); w books beat 1 (done 1+1+1=3).
	if rEnd != 3 || wEnd != 3 {
		t.Fatalf("rEnd=%d wEnd=%d, want 3 and 3", rEnd, wEnd)
	}
}

func TestPortBringsRunAheadRequesterBackToTheClock(t *testing.T) {
	// A process that recorded steps with Advance has not reached its
	// logical time on the kernel clock yet. Every port entry point must
	// play the steps out before it arbitrates, so a request another process
	// makes in between is served first — exactly as if the requester had
	// parked in Delay.
	cfg := testCfg()
	cfg.DualPort = false // one bus: every entry point contends with other
	for _, entry := range []string{"ReadAccess", "WriteAccess", "ScheduleRead", "ScheduleWrite"} {
		k := sim.NewKernel()
		m := New(k, cfg)
		m.Poke(32, []byte{7, 8, 9})
		var aheadDone, otherDone uint64
		k.NewProc("ahead", 0, func(p *sim.Proc) {
			p.Advance(2)
			p.Advance(3)
			switch entry {
			case "ReadAccess":
				buf := make([]byte, 3)
				m.ReadAccess(p, 32, buf)
				if !bytes.Equal(buf, []byte{7, 8, 9}) {
					t.Errorf("buf = %v", buf)
				}
				aheadDone = p.Now()
			case "WriteAccess":
				m.WriteAccess(p, 0, []byte{1})
				aheadDone = p.Now()
			case "ScheduleRead":
				m.ScheduleRead(32, 3, func() { aheadDone = k.Now() })
			case "ScheduleWrite":
				m.ScheduleWrite(0, 1, func() { aheadDone = k.Now() })
			}
		})
		k.NewProc("other", 0, func(p *sim.Proc) {
			p.Delay(4)
			m.ReadAccess(p, 0, make([]byte, 64))
			otherDone = p.Now()
		})
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: Run: %v", entry, err)
		}
		// other books beats 4..7 (done 8+2=10); ahead arrives at 5, queues
		// until 8, and completes 8 + 1 beat + latency (2 read, 1 write).
		want := uint64(11)
		if strings.Contains(entry, "Write") {
			want = 10
		}
		if otherDone != 10 || aheadDone != want {
			t.Errorf("%s: other done at %d, run-ahead requester at %d, want 10 and %d", entry, otherDone, aheadDone, want)
		}
		if st := m.ReadPort().Stats(); st.WaitSum != 3 {
			t.Errorf("%s: WaitSum = %d, want 3 (the requester queued from 5 to 8)", entry, st.WaitSum)
		}
	}
}

func TestStatsAndUtilization(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testCfg())
	k.NewProc("r", 0, func(p *sim.Proc) {
		buf := make([]byte, 32)
		m.ReadAccess(p, 0, buf) // 2 beats
		m.ReadAccess(p, 0, buf) // 2 beats
		p.Delay(16)
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.ReadPort().Stats()
	if st.Requests != 2 || st.Bytes != 64 || st.BusyBeats != 4 {
		t.Fatalf("stats = %+v", st)
	}
	u := m.ReadPort().Utilization()
	if u <= 0 || u >= 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestNarrowBusTakesLonger(t *testing.T) {
	run := func(width int) uint64 {
		cfg := testCfg()
		cfg.Width = width
		k := sim.NewKernel()
		m := New(k, cfg)
		var end uint64
		k.NewProc("r", 0, func(p *sim.Proc) {
			buf := make([]byte, 128)
			m.ReadAccess(p, 0, buf)
			end = p.Now()
		})
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return end
	}
	if w4, w16 := run(4), run(16); w4 <= w16 {
		t.Fatalf("4-byte bus (%d) should be slower than 16-byte bus (%d)", w4, w16)
	}
}

func TestFig8Presets(t *testing.T) {
	s, d := Fig8SRAM(), Fig8DRAM()
	if s.Size != 32*1024 || s.Width != 16 || !s.DualPort {
		t.Fatalf("Fig8SRAM = %+v", s)
	}
	if d.DualPort || d.ReadLatency <= s.ReadLatency {
		t.Fatalf("Fig8DRAM = %+v", d)
	}
}
