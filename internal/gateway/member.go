package gateway

import (
	"net/url"
	"sync"
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
	ejectedAt time.Time // start of the half-open cooldown
	// st holds m's counters and its consecutive failures; ID, Base and
	// State are filled in by stats.
	st UpstreamStats
}

// snapshot returns the base URL and appliance under the lock.
func (m *member) snapshot() (string, *appliance.Appliance) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base, m.app
}

// send counts one request to m and returns its base URL parsed.
func (m *member) send() (*url.URL, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.Proxied++
	return m.parsed.Parse(m.base)
}

// stats snapshots m's health and counters in one critical section, so
// its state always agrees with its ejections.
func (m *member) stats(now time.Time) UpstreamStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	st.ID, st.Base, st.State = m.id, m.base, "healthy"
	if m.state != stateHealthy {
		st.State = "ejected"
		if now.Sub(m.ejectedAt) >= m.gw.cfg.HalfOpenAfter {
			st.State = "half-open"
		}
	}
	return st
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
	case m.trial || time.Since(m.ejectedAt) < m.gw.cfg.HalfOpenAfter:
		return false
	}
	m.trial = true
	m.st.HalfOpenTrials++
	return true
}

// fail records one failed hop.
func (m *member) fail() {
	now := time.Now()
	m.mu.Lock()
	m.st.ConsecutiveFails++
	switch m.state {
	case stateHealthy:
		if m.st.ConsecutiveFails >= m.gw.cfg.FailThreshold {
			m.state = stateEjected
			m.ejectedAt = now
			m.st.Ejections++
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
	m.st.ConsecutiveFails, m.trial = 0, false
	if m.state != stateHealthy {
		m.state = stateHealthy
		m.st.Recoveries++
	}
	m.mu.Unlock()
}
