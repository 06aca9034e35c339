package cluster

// Gateway-side singleflight. With the L1 enabled, concurrent requests
// for the same content address collapse onto one leader: a 32-way storm
// on a cold key costs the cluster exactly one backend round-trip, and
// the followers are served from the fill (or from the leader's buffered
// response verbatim when the outcome was not cacheable). This is the
// near-tier twin of the backends' own flight table (internal/serve):
// the backend collapses a storm that reaches it into one decode; the
// gateway collapses it into one request that reaches the backend at
// all. Both drive internal/flight's Do. A leader's exchange ends with
// one of its verdicts:
//
//   - Resident: a 200 was filled into the L1. Followers re-run the
//     lookup, each acquiring its own refcounted entry, and serve it as a
//     collapsed hit.
//   - Publish: the leader published a doResult, below.
//   - Abdicate: the leader's budget expired or its client hung up; the
//     key is fine, so a parked follower is promoted.

// doResult is what a flight's leader publishes. With res or gwStatus
// set it is a fully buffered terminal response that was not cacheable
// (a non-200 final answer, an exhausted pushback, a gateway-origin
// 502/503): followers relay the same bytes verbatim, and the storm
// still cost one backend round-trip. The zero value says the leader's
// outcome cannot be replayed for anyone else (an over-cap response that
// streamed through, or a mid-stream failure whose 502 reflects one
// connection's fate): followers proxy independently.
type doResult struct {
	res      *attemptResp // an upstream response
	gwStatus int          // or a gateway-origin error
	gwMsg    string
}
