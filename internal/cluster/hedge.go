package cluster

import (
	"time"

	"eclipse/internal/serve"
)

// Hedging ("tail at scale"): when the preferred backend has not
// answered within the per-kind hedge delay, the gateway duplicates the
// request to the next backend in rendezvous order and takes whichever
// response lands first, cancelling the loser. The delay is adaptive —
// the p95 of successful upstream attempt latencies for that kind — so
// roughly 5% of requests hedge, bounding the duplicate load while
// cutting the latency tail caused by one slow node.

// The adaptive trigger's fixed points: the p95 counts once
// hedgeMinSamples attempts of a kind have been observed (hedgeColdDelay
// until then) and is floored at hedgeMinDelay.
const (
	hedgeColdDelay  = 100 * time.Millisecond
	hedgeMinDelay   = 2 * time.Millisecond
	hedgeMinSamples = 32
)

// hedgeDelay returns the current hedge trigger delay for a kind.
func (g *Gateway) hedgeDelay(k serve.Kind) time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	h := &g.met.AttemptLat[k]
	if h.Count() < hedgeMinSamples {
		// Not enough signal yet: hedge conservatively so a cold gateway
		// never doubles its load on guesswork.
		return hedgeColdDelay
	}
	d := h.Quantile(0.95)
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	return d
}
