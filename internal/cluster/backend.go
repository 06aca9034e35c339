package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"
)

// BackendState is a backend's routability, as decided by the active
// prober (rise/fall thresholds over /readyz) and the passive signals
// riding on proxied traffic (consecutive transport failures eject,
// X-Eclipse-Draining marks a graceful drain).
type BackendState int32

const (
	// StateDown: not routable. The initial state of every backend (it
	// must pass Rise consecutive probes before taking traffic) and the
	// destination of both fall-threshold probe failures and passive
	// ejection. Only the active prober can bring a backend back up.
	StateDown BackendState = iota
	// StateUp: routable.
	StateUp
	// StateDraining: the backend answered with the X-Eclipse-Draining
	// marker — it is alive but refusing new work, so it is not routable;
	// the prober keeps watching in case the drain is cancelled.
	StateDraining
)

// String names the state for /varz and log lines.
func (s BackendState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	}
	return "down"
}

// Backend is one eclipse-serve instance the gateway can route to. The
// name (host:port) is the stable identity fed into the rendezvous hash,
// so a backend that flaps keeps its key range across down/up cycles —
// re-admission restores cache affinity instead of reshuffling the ring.
type Backend struct {
	name string
	url  *url.URL

	state atomic.Int32

	// epoch increments on every state transition. The prober owns the
	// rise/fall consecutive counters privately; it resets them whenever
	// it observes an epoch it did not cause (e.g. a passive ejection),
	// so re-admission after ejection always costs Rise fresh probes.
	epoch atomic.Uint64

	// passiveFails counts consecutive proxied transport failures (connect
	// errors, mid-stream truncation). Any proxied success resets it.
	passiveFails atomic.Int32

	// Counters for /varz and /metrics.
	requests  atomic.Uint64 // proxied attempts sent to this backend
	errors    atomic.Uint64 // attempts that failed (transport or 5xx)
	ejections atomic.Uint64 // passive Up->Down transitions
	drains    atomic.Uint64 // transitions into StateDraining
	probeOK   atomic.Uint64
	probeFail atomic.Uint64
}

// newBackend parses a backend address ("host:port" or a full URL).
func newBackend(addr string) (*Backend, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad backend %q: %v", addr, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: backend %q has no host", addr)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return &Backend{name: u.Host, url: u}, nil
}

// Name returns the backend's stable identity (the rendezvous-hash key).
func (b *Backend) Name() string { return b.name }

// State returns the current routability state.
func (b *Backend) State() BackendState { return BackendState(b.state.Load()) }

// Routable reports whether new requests may be sent here.
func (b *Backend) Routable() bool { return b.State() == StateUp }

// BackendSnapshot is one backend's row in /varz.
type BackendSnapshot struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"`
	Requests  uint64 `json:"requests_total"`
	Errors    uint64 `json:"errors_total"`
	Ejections uint64 `json:"ejections_total"`
	Drains    uint64 `json:"drains_total"`
	ProbeOK   uint64 `json:"probe_ok_total"`
	ProbeFail uint64 `json:"probe_fail_total"`
}

// Snapshot copies the backend's observable state.
func (b *Backend) Snapshot() BackendSnapshot {
	return BackendSnapshot{
		Name:      b.name,
		URL:       b.url.String(),
		State:     b.State().String(),
		Requests:  b.requests.Load(),
		Errors:    b.errors.Load(),
		Ejections: b.ejections.Load(),
		Drains:    b.drains.Load(),
		ProbeOK:   b.probeOK.Load(),
		ProbeFail: b.probeFail.Load(),
	}
}
