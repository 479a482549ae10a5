package gateway

import (
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/hop"
)

// memberState is the health FSM: healthy → (FailThreshold consecutive
// failed hops) ejected → (HalfOpenAfter cooldown) half-open → healthy on
// the next reply, back to ejected (cooldown restarted) on the next failed
// hop. Only requests move it: the proxied traffic is the probe, and the
// half-open trial is the one request admit lets through once the
// cooldown has passed.
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
	trial     bool      // the half-open trial is out
	fails     int       // consecutive failures
	ejectedAt time.Time // gateway clock; start of the half-open cooldown

	// Counters (atomic; read by GatewayStats).
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

// admit reports whether a request may be sent to m now, and the caller
// sends one when it says yes. An ejected member whose cooldown has passed
// admits one request, its half-open trial; until that trial's reply or
// failure lands, m admits nothing more.
func (m *member) admit() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.state == stateHealthy:
		return true
	case m.trial || m.gw.clock.Now().Sub(m.ejectedAt) < m.gw.cfg.HalfOpenAfter:
		return false
	}
	m.trial = true
	m.halfOpenTrials.Add(1)
	return true
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

// fail records one failed hop.
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
		// The trial failed, or a hop sent before the ejection did: either
		// restarts the cooldown, after which another trial is admitted.
		m.trial = false
		m.ejectedAt = now
	}
	m.mu.Unlock()
}

// ok records one reply; on an ejected member it readmits it.
func (m *member) ok() {
	m.mu.Lock()
	m.fails, m.trial = 0, false
	if m.state != stateHealthy {
		m.state = stateHealthy
		m.recoveries.Add(1)
	}
	m.mu.Unlock()
}
