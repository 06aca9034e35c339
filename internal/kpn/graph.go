// Package kpn models Kahn Process Network applications: task graphs whose
// nodes communicate exclusively through unidirectional FIFO-buffered
// streams (paper Section 2.1). A Graph is a declarative structure shared
// by two execution engines:
//
//   - the functional executor in this package (one goroutine per task,
//     blocking reads/writes — the untimed Kahn reference semantics), and
//   - the cycle-accurate Eclipse model (packages shell/copro),
//     which maps tasks onto multi-tasking coprocessors.
//
// Kahn's theorem guarantees the sequence of bytes on every stream is
// independent of scheduling, which is what makes outputs of the two
// engines comparable byte for byte.
package kpn

import (
	"fmt"
	"sort"
	"strings"
)

// Direction tells whether a port consumes or produces data.
type Direction uint8

const (
	// In marks a consuming port.
	In Direction = iota
	// Out marks a producing port.
	Out
)

// String returns "in" or "out".
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Port is a named, directed connection point of a task.
type Port struct {
	Name string
	Dir  Direction
}

// Task is a node of the application graph. Fn names the Kahn function the
// task performs (e.g. "vld", "idct"); the mapping phase uses it to select
// a coprocessor or a software implementation. Info is the task_info
// parameter delivered by GetTask (e.g. forward-vs-inverse DCT selection).
type Task struct {
	Name  string
	Fn    string
	Info  uint32
	Ports []Port
}

// AddIn declares a consuming port and returns the task for chaining.
func (t *Task) AddIn(name string) *Task {
	t.Ports = append(t.Ports, Port{Name: name, Dir: In})
	return t
}

// AddOut declares a producing port and returns the task for chaining.
func (t *Task) AddOut(name string) *Task {
	t.Ports = append(t.Ports, Port{Name: name, Dir: Out})
	return t
}

// Port returns the named port, or nil.
func (t *Task) Port(name string) *Port {
	for i := range t.Ports {
		if t.Ports[i].Name == name {
			return &t.Ports[i]
		}
	}
	return nil
}

// PortRef identifies a task port as "task.port".
type PortRef struct {
	Task, Port string
}

// String formats the reference as "task.port".
func (r PortRef) String() string { return r.Task + "." + r.Port }

// parsePortRef splits "task.port".
func parsePortRef(s string) (PortRef, error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return PortRef{}, fmt.Errorf("kpn: bad port reference %q (want task.port)", s)
	}
	return PortRef{Task: s[:i], Port: s[i+1:]}, nil
}

// Stream is an edge of the graph: one producer port, one or more consumer
// ports (a multi-consumer stream broadcasts every byte to each consumer),
// and a finite FIFO buffer.
type Stream struct {
	Name     string
	From     PortRef
	To       []PortRef
	BufBytes int
}

// Graph is a Kahn process network application.
type Graph struct {
	Name    string
	Tasks   []*Task
	Streams []*Stream
}

// NewGraph creates an empty application graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddTask declares a task; fn names its Kahn function for mapping.
func (g *Graph) AddTask(name, fn string) *Task {
	t := &Task{Name: name, Fn: fn}
	g.Tasks = append(g.Tasks, t)
	return t
}

// Task returns the named task, or nil.
func (g *Graph) Task(name string) *Task {
	for _, t := range g.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Connect adds a stream from a producer port to one or more consumer
// ports, each given as "task.port", with the given FIFO capacity in
// bytes. It returns the stream so callers can adjust it.
func (g *Graph) Connect(from string, to []string, bufBytes int) (*Stream, error) {
	f, err := parsePortRef(from)
	if err != nil {
		return nil, err
	}
	s := &Stream{Name: from, From: f, BufBytes: bufBytes}
	for _, c := range to {
		r, err := parsePortRef(c)
		if err != nil {
			return nil, err
		}
		s.To = append(s.To, r)
	}
	g.Streams = append(g.Streams, s)
	return s, nil
}

// MustConnect is Connect that panics on malformed references; for use in
// statically-known graph builders.
func (g *Graph) MustConnect(from string, bufBytes int, to ...string) *Stream {
	s, err := g.Connect(from, to, bufBytes)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural well-formedness: unique task names, unique
// port names per task, every stream endpoint resolves to a port of the
// right direction, every port has exactly one incident stream, and
// positive buffer sizes.
func (g *Graph) Validate() error {
	taskSeen := map[string]bool{}
	for _, t := range g.Tasks {
		if t.Name == "" || strings.ContainsAny(t.Name, ". \t") {
			return fmt.Errorf("kpn: invalid task name %q", t.Name)
		}
		if taskSeen[t.Name] {
			return fmt.Errorf("kpn: duplicate task %q", t.Name)
		}
		taskSeen[t.Name] = true
		portSeen := map[string]bool{}
		for _, p := range t.Ports {
			if p.Name == "" || portSeen[p.Name] {
				return fmt.Errorf("kpn: task %q: invalid or duplicate port %q", t.Name, p.Name)
			}
			portSeen[p.Name] = true
		}
	}
	incident := map[PortRef]int{}
	resolve := func(r PortRef, want Direction) error {
		t := g.Task(r.Task)
		if t == nil {
			return fmt.Errorf("kpn: stream endpoint %s: no such task", r)
		}
		p := t.Port(r.Port)
		if p == nil {
			return fmt.Errorf("kpn: stream endpoint %s: no such port", r)
		}
		if p.Dir != want {
			return fmt.Errorf("kpn: stream endpoint %s: is an %s port, need %s", r, p.Dir, want)
		}
		incident[r]++
		return nil
	}
	for _, s := range g.Streams {
		if s.BufBytes <= 0 {
			return fmt.Errorf("kpn: stream %s: buffer size %d", s.Name, s.BufBytes)
		}
		if len(s.To) == 0 {
			return fmt.Errorf("kpn: stream %s has no consumers", s.Name)
		}
		if err := resolve(s.From, Out); err != nil {
			return err
		}
		for _, c := range s.To {
			if err := resolve(c, In); err != nil {
				return err
			}
		}
	}
	for _, t := range g.Tasks {
		for _, p := range t.Ports {
			ref := PortRef{Task: t.Name, Port: p.Name}
			switch n := incident[ref]; {
			case n == 0:
				return fmt.Errorf("kpn: port %s is unconnected", ref)
			case n > 1:
				return fmt.Errorf("kpn: port %s has %d incident streams", ref, n)
			}
		}
	}
	return nil
}

// StreamFor returns the stream incident with the given port reference
// (producing or consuming), or nil.
func (g *Graph) StreamFor(ref PortRef) *Stream {
	for _, s := range g.Streams {
		if s.From == ref {
			return s
		}
		for _, c := range s.To {
			if c == ref {
				return s
			}
		}
	}
	return nil
}

// String renders a compact description of the graph for diagnostics.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s\n", g.Name)
	names := make([]string, 0, len(g.Tasks))
	for _, t := range g.Tasks {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		t := g.Task(n)
		fmt.Fprintf(&sb, "  task %s (%s)\n", t.Name, t.Fn)
	}
	for _, s := range g.Streams {
		tos := make([]string, len(s.To))
		for i, c := range s.To {
			tos[i] = c.String()
		}
		fmt.Fprintf(&sb, "  stream %s -> %s [%dB]\n", s.From, strings.Join(tos, ","), s.BufBytes)
	}
	return sb.String()
}
