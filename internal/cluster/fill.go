package cluster

import "io"

// Gateway-side singleflight. With the L1 enabled, concurrent requests
// for the same content address collapse onto one leader: a 32-way storm
// on a cold key costs the cluster exactly one backend round-trip, and
// the followers are served from the fill (or from the leader's buffered
// response verbatim when the outcome was not cacheable). This is the
// near-tier twin of the backends' own flight table (internal/serve):
// the backend collapses a storm that reaches it into one decode; the
// gateway collapses it into one request that reaches the backend at
// all. Both use the one table and abdication/promotion protocol of
// internal/flight; here a leader-specific failure is a budget that
// expired or a client that hung up.

// flightOutcome says how a finished flight's followers proceed.
type flightOutcome int

const (
	// flightFilled: the key is now resident in the L1 (a fill or a 304
	// refresh). Followers re-run the lookup, each acquiring its own
	// refcounted entry, and serve it as a collapsed hit.
	flightFilled flightOutcome = iota
	// flightShared: the leader holds a fully buffered terminal response
	// that was not cacheable (a non-200 final answer, an exhausted
	// pushback, a gateway-origin 502/503). Followers relay the same
	// bytes verbatim — the storm still cost one backend round-trip.
	flightShared
	// flightSolo: the leader's outcome cannot be replayed for anyone
	// else (an over-cap response that streamed through, or a mid-stream
	// failure whose 502 reflects one connection's fate). Followers
	// proxy independently.
	flightSolo
)

// doResult tells the L1 layer how a proxied exchange ended. It is what
// a flight's leader publishes, so the followers know how to proceed.
type doResult struct {
	outcome    flightOutcome
	res        *attemptResp // flightShared with an upstream response
	gwStatus   int          // flightShared with a gateway-origin error
	gwMsg      string
	leaderSpec bool // budget expired / client gone: abdicate, don't publish
}

// readCapped reads r into memory up to max bytes (plus one sentinel
// byte that detects overflow). If r ends within the cap it returns
// (body, false, nil) — the fully buffered case. If more than max bytes
// are available it returns (prefix, true, nil) with every byte read so
// far (max+1 of them) and the rest still unread in r — the caller must
// relay the prefix before streaming the remainder. A read error before
// the cap is the caller's mid-stream signal.
func readCapped(r io.Reader, max int64) ([]byte, bool, error) {
	buf := make([]byte, 0, 4096)
	limited := io.LimitReader(r, max+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := limited.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, false, err
		}
	}
	return buf, int64(len(buf)) > max, nil
}
