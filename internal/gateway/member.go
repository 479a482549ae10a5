package gateway

import (
	"context"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/hop"
)

// memberState is the health FSM: healthy → (FailThreshold consecutive
// failures) ejected → (HalfOpenAfter cooldown) half-open trial → healthy
// on success, back to ejected (cooldown restarted) on failure. Both
// active probes and passive proxy errors feed the same counters, so a
// mid-burst crash ejects on the burst's own failures without waiting for
// the prober.
type memberState int32

const (
	stateHealthy memberState = iota
	stateEjected
)

// member is one appliance behind the gateway.
type member struct {
	id  string
	idx int
	gw  *Gateway

	mu        sync.Mutex
	app       *appliance.Appliance // nil only transiently during rejoin
	base      string
	parsed    hop.Base // base as a URL, parsed again only when base changes
	killed    bool
	state     memberState
	fails     int       // consecutive failures
	ejectedAt time.Time // gateway clock; start of the half-open cooldown

	// Counters (atomic; read by GatewayStats).
	probes, probeFails    atomic.Uint64
	proxied, proxyErrs    atomic.Uint64
	ejections, recoveries atomic.Uint64
	halfOpenTrials        atomic.Uint64
	redeploys             atomic.Uint64
}

// snapshot returns the base URL and appliance under the lock.
func (m *member) snapshot() (string, *appliance.Appliance) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base, m.app
}

// root returns the base URL parsed.
func (m *member) root() (*url.URL, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parsed.Parse(m.base)
}

func (m *member) healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == stateHealthy
}

// stateName renders the FSM state for stats, deriving "half-open" from
// an elapsed cooldown.
func (m *member) stateName(now time.Time) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateHealthy {
		return "healthy"
	}
	if now.Sub(m.ejectedAt) >= m.gw.cfg.HalfOpenAfter {
		return "half-open"
	}
	return "ejected"
}

// fail records one failed probe or proxy attempt.
func (m *member) fail() {
	now := m.gw.clock.Now()
	m.mu.Lock()
	m.fails++
	switch m.state {
	case stateHealthy:
		if m.fails >= m.gw.cfg.FailThreshold {
			m.state = stateEjected
			m.ejectedAt = now
			m.ejections.Add(1)
		}
	case stateEjected:
		m.ejectedAt = now // failed trial restarts the cooldown
	}
	m.mu.Unlock()
}

// ok records one successful probe or proxy response.
func (m *member) ok() {
	m.mu.Lock()
	m.fails = 0
	if m.state != stateHealthy {
		m.state = stateHealthy
		m.recoveries.Add(1)
	}
	m.mu.Unlock()
}

// probe runs one active health check: GET /api/stats with a short real
// deadline. Ejected members probe only once their half-open cooldown has
// elapsed, and that trial is the single request the circuit admits.
func (m *member) probe() {
	m.mu.Lock()
	if m.state == stateEjected {
		if m.gw.clock.Now().Sub(m.ejectedAt) < m.gw.cfg.HalfOpenAfter {
			m.mu.Unlock()
			return
		}
		m.halfOpenTrials.Add(1)
	}
	base := m.base
	m.mu.Unlock()

	m.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), m.gw.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/stats", nil)
	if err != nil {
		m.probeFails.Add(1)
		m.fail()
		return
	}
	resp, err := m.gw.httpc.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		m.probeFails.Add(1)
		m.fail()
		return
	}
	resp.Body.Close()
	m.ok()
}
