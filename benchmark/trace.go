package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// A span is one timed call into a layer. Spans of one op share the op id;
// parent is the index of the enclosing rung's span, -1 for the outermost.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// A rung is one depth of a workload's ladder: the same op, entered one layer
// further down than the rung before it. The benchmark may not instrument the
// program, so rungs are sequential replays of the op, not one nested call.
type rung struct {
	name string
	run  func(op int) error
}

// ladderResult holds the spans of a ladder and, per rung, its median
// duration and self time (duration minus the next rung's) in ms.
type ladderResult struct {
	spans  []span
	p50Ms  map[string]float64
	selfMs map[string]float64
}

// runLadder replays ops 0..n-1 through every rung.
func runLadder(rungs []rung, n int, epoch time.Time) (*ladderResult, error) {
	res := &ladderResult{p50Ms: map[string]float64{}, selfMs: map[string]float64{}}
	durs := make([][]float64, len(rungs))
	selfs := make([][]float64, len(rungs))
	for op := 0; op < n; op++ {
		// Odd ops climb the ladder instead of descending it, so that what one
		// rung leaves behind (garbage, warm caches) is not always charged to
		// the same neighbour.
		t0s, t1s := make([]time.Time, len(rungs)), make([]time.Time, len(rungs))
		for k := range rungs {
			d := k
			if op%2 == 1 {
				d = len(rungs) - 1 - k
			}
			t0s[d] = time.Now()
			err := rungs[d].run(op)
			t1s[d] = time.Now()
			if err != nil {
				return nil, fmt.Errorf("ladder %s op %d: %w", rungs[d].name, op, err)
			}
		}
		parent := -1
		for d, r := range rungs {
			res.spans = append(res.spans, span{
				Name: r.name, Op: op, Parent: parent,
				StartNs: t0s[d].Sub(epoch).Nanoseconds(), EndNs: t1s[d].Sub(epoch).Nanoseconds(),
			})
			parent = len(res.spans) - 1
			durs[d] = append(durs[d], ms(t1s[d].Sub(t0s[d])))
		}
		for d := range rungs {
			self := durs[d][op]
			if d+1 < len(rungs) {
				self -= durs[d+1][op]
			}
			selfs[d] = append(selfs[d], self)
		}
	}
	for d, r := range rungs {
		res.p50Ms[r.name] = median(durs[d])
		res.selfMs[r.name] = median(selfs[d])
	}
	return res, nil
}

// writeTrace stores the spans as JSON, one array under "spans".
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Host     hostShape `json:"host"`
		Spans    []span    `json:"spans"`
	}{workload, seed, host(), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
