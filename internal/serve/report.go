package serve

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteReport prints a drain-time summary of the serving run in the
// style of the simulator's Figure 9 report: per-kind traffic and
// latency, the tenant table, and the result-cache view.
func (s *Server) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "== serving view (uptime %s) ==\n\n", time.Since(s.met.Start).Round(time.Millisecond))

	fmt.Fprintf(w, "%-10s %10s %8s %10s %10s %10s\n", "kind", "requests", "errors", "p50", "p99", "mean")
	for _, k := range s.met.kindSnapshots() {
		if k.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %10d %8d %9.1fms %9.1fms %9.1fms\n",
			k.Kind, k.Requests, k.Errors, k.P50Ms, k.P99Ms, k.MeanMs)
	}
	fmt.Fprintf(w, "\nrejects %d · preemptions %d · bytes in %d · bytes out %d\n",
		s.met.Rejects.Load(), s.met.Preemptions.Load(), s.met.BytesIn.Load(), s.met.BytesOut.Load())

	tenants := s.sched.SnapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	fmt.Fprintf(w, "\n%-12s %6s %7s %9s %7s %8s %8s %11s %7s\n",
		"tenant", "weight", "cache", "completed", "errors", "rejects", "preempts", "service", "ewma")
	for _, t := range tenants {
		fmt.Fprintf(w, "%-12s %6d %7s %9d %7d %8d %8d %10.2fs %5.1fms\n",
			t.Name, t.Weight, t.CacheMode, t.Completed, t.Errors,
			t.Rejects, t.Preempts, t.ServiceSec, t.EwmaJobMs)
	}

	if s.cache == nil {
		fmt.Fprintf(w, "\nresult cache: disabled\n")
		return
	}
	cs := s.cache.Snapshot()
	total := cs.Hits + cs.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(cs.Hits) / float64(total)
	}
	fmt.Fprintf(w, "\n== result cache ==\n\n")
	fmt.Fprintf(w, "hit-rate %.1f%% (%d/%d) · collapsed %d · 304s %d · promotions %d\n",
		rate*100, cs.Hits, total, cs.Collapsed, cs.NotModified, cs.Promotions)
	fmt.Fprintf(w, "resident %d/%d bytes in %d entries · fills %d · evictions %d · too-large %d\n",
		cs.ResidentBytes, cs.BudgetBytes, cs.Entries, cs.Fills, cs.Evictions, cs.TooLarge)
	fmt.Fprintf(w, "hit  p50 %.2fms p99 %.2fms\nmiss p50 %.2fms p99 %.2fms\n",
		cs.HitP50Ms, cs.HitP99Ms, cs.MissP50Ms, cs.MissP99Ms)
	if len(cs.Tenants) > 0 {
		fmt.Fprintf(w, "\n%-12s %9s %9s %10s %6s %10s %14s\n",
			"tenant", "hits", "misses", "collapsed", "304s", "evictions", "resident")
		for _, t := range cs.Tenants {
			fmt.Fprintf(w, "%-12s %9d %9d %10d %6d %10d %14d\n",
				t.Name, t.Hits, t.Misses, t.Collapsed, t.NotModified, t.Evictions, t.ResidentBytes)
		}
	}
}
