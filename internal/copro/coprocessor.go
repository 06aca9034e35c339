package copro

import (
	"fmt"

	"eclipse/internal/shell"
	"eclipse/internal/sim"
)

// The framework the models below are built on: the coprocessor control
// loop of paper Section 4 (an infinite loop over processing steps, each
// started by GetTask) and the per-task context a model's Step receives.
//
// A coprocessor is a shell plus a set of installed Task implementations
// (one per task-table entry). The framework runs the top-level loop:
//
//	for {
//	    task, info = GetTask()
//	    step(task, info)     // may abort on denied GetSpace
//	}
//
// Multi-tasking, synchronization, and transport all happen through the
// five shell primitives; a Task aborts a processing step by returning
// from Step after a denied GetSpace without committing anything, and the
// scheduler will only re-dispatch it when the denial looks satisfiable.

// Task is one Kahn task's implementation on a coprocessor: Step executes
// (or aborts) one processing step. Step returns true when the task has
// completed all of its work and must never be scheduled again.
type Task interface {
	Step(c *Ctx) (done bool)
}

// Ctx gives a Task access to the five primitives, bound to its task id.
type Ctx struct {
	Sh   *shell.Shell
	Task int
	Info uint32
}

// GetSpace asks for n bytes of data/room on the port.
func (c *Ctx) GetSpace(port int, n uint32) bool { return c.Sh.GetSpace(c.Task, port, n) }

// PutSpace commits n bytes on the port.
func (c *Ctx) PutSpace(port int, n uint32) { c.Sh.PutSpace(c.Task, port, n) }

// Read copies bytes from inside the granted window of an input port.
func (c *Ctx) Read(port int, offset uint32, buf []byte) { c.Sh.Read(c.Task, port, offset, buf) }

// Write stores bytes inside the granted window of an output port.
func (c *Ctx) Write(port int, offset uint32, data []byte) { c.Sh.Write(c.Task, port, offset, data) }

// Compute charges function-specific datapath time.
func (c *Ctx) Compute(cycles uint64) { c.Sh.Compute(cycles) }

// Proc returns the coprocessor's simulation process (for models with
// private memory connections, e.g. the MC/ME system-bus port).
func (c *Ctx) Proc() *sim.Proc { return c.Sh.Proc() }

// Now returns the current cycle.
func (c *Ctx) Now() uint64 { return c.Sh.Now() }

// Coprocessor couples a shell with the Task implementations installed in
// its task table.
type Coprocessor struct {
	sh    *shell.Shell
	tasks map[int]Task
}

// NewCoprocessor creates a coprocessor wrapper for a shell.
func NewCoprocessor(sh *shell.Shell) *Coprocessor {
	return &Coprocessor{sh: sh, tasks: map[int]Task{}}
}

// Shell returns the underlying shell.
func (cp *Coprocessor) Shell() *shell.Shell { return cp.sh }

// Install binds a Task implementation to a task-table entry.
func (cp *Coprocessor) Install(taskID int, t Task) {
	if _, dup := cp.tasks[taskID]; dup {
		panic(fmt.Sprintf("copro: task %d installed twice on %s", taskID, cp.sh.Name()))
	}
	cp.tasks[taskID] = t
}

// Start launches the coprocessor's control loop as a simulation process.
func (cp *Coprocessor) Start(k *sim.Kernel) {
	k.NewProc(cp.sh.Name(), 0, func(p *sim.Proc) {
		cp.sh.Bind(p)
		for {
			task, info, ok := cp.sh.GetTask()
			if !ok {
				return
			}
			t := cp.tasks[task]
			if t == nil {
				panic(fmt.Sprintf("copro: %s scheduled task %d with no implementation", cp.sh.Name(), task))
			}
			if t.Step(&Ctx{Sh: cp.sh, Task: task, Info: info}) {
				cp.sh.TaskDone(task)
			}
		}
	})
}
