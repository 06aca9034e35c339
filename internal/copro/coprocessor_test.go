package copro

import (
	"strings"
	"testing"

	"eclipse/internal/mem"
	"eclipse/internal/shell"
	"eclipse/internal/sim"
)

// chunkTask moves `total` bytes through its single port in fixed chunks,
// exercising the framework loop.
type chunkTask struct {
	out   bool
	total uint32
	chunk uint32
	moved uint32
	steps int
	fill  byte
	got   []byte
}

func (ct *chunkTask) Step(c *Ctx) bool {
	ct.steps++
	n := ct.chunk
	if ct.moved+n > ct.total {
		n = ct.total - ct.moved
	}
	if !c.GetSpace(0, n) {
		return false
	}
	buf := make([]byte, n)
	if ct.out {
		for i := range buf {
			buf[i] = ct.fill
		}
		c.Write(0, 0, buf)
	} else {
		c.Read(0, 0, buf)
		ct.got = append(ct.got, buf...)
	}
	c.Compute(5)
	c.PutSpace(0, n)
	ct.moved += n
	return ct.moved == ct.total
}

func TestCoprocessorFrameworkRunsTasks(t *testing.T) {
	k := sim.NewKernel()
	fab := shell.NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	pSh := fab.NewShell(shell.DefaultConfig("p"))
	cSh := fab.NewShell(shell.DefaultConfig("c"))
	prod := NewCoprocessor(pSh)
	cons := NewCoprocessor(cSh)
	pT := pSh.AddTask("prod", 0, 0)
	cT := cSh.AddTask("cons", 7, 0)
	if err := fab.Connect(shell.Endpoint{Shell: pSh, Task: pT, Port: 0},
		[]shell.Endpoint{{Shell: cSh, Task: cT, Port: 0}}, 128); err != nil {
		t.Fatal(err)
	}
	producer := &chunkTask{out: true, total: 1000, chunk: 50, fill: 0xAB}
	consumer := &chunkTask{total: 1000, chunk: 25}
	prod.Install(pT, producer)
	cons.Install(cT, consumer)
	prod.Start(k)
	cons.Start(k)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if len(consumer.got) != 1000 {
		t.Fatalf("moved %d bytes", len(consumer.got))
	}
	for i, b := range consumer.got {
		if b != 0xAB {
			t.Fatalf("byte %d = %x", i, b)
		}
	}
	if producer.steps == 0 || consumer.steps == 0 {
		t.Fatal("no steps")
	}
}

func TestCtxInfoDelivery(t *testing.T) {
	k := sim.NewKernel()
	fab := shell.NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	sh := fab.NewShell(shell.DefaultConfig("x"))
	cp := NewCoprocessor(sh)
	id := sh.AddTask("t", 42, 0)
	var seen uint32
	cp.Install(id, taskFunc(func(c *Ctx) bool {
		seen = c.Info
		if c.Now() != c.Sh.Now() {
			t.Error("Now mismatch")
		}
		return true
	}))
	cp.Start(k)
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Fatalf("info = %d", seen)
	}
}

// taskFunc adapts a function to the Task interface.
type taskFunc func(*Ctx) bool

func (f taskFunc) Step(c *Ctx) bool { return f(c) }

func TestDoubleInstallPanics(t *testing.T) {
	k := sim.NewKernel()
	fab := shell.NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	cp := NewCoprocessor(fab.NewShell(shell.DefaultConfig("x")))
	id := cp.Shell().AddTask("t", 0, 0)
	cp.Install(id, taskFunc(func(*Ctx) bool { return true }))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "twice") {
			t.Fatalf("recover = %v", r)
		}
	}()
	cp.Install(id, taskFunc(func(*Ctx) bool { return true }))
}

func TestMissingImplementationFails(t *testing.T) {
	k := sim.NewKernel()
	fab := shell.NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	cp := NewCoprocessor(fab.NewShell(shell.DefaultConfig("x")))
	cp.Shell().AddTask("ghost", 0, 0) // task in the table, no Install
	cp.Start(k)
	err := k.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("err = %v", err)
	}
}
