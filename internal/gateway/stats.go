package gateway

import "sync/atomic"

// Stats is the gateway's observability block, surfaced under "gateway"
// in the front door's /api/stats document and via GatewayStats() —
// consistent with the appliance's CollectorStats/SubmitStats/
// PlacementStats counters.
type Stats struct {
	// RingMembers / VirtualNodes describe the consistent-hash ring.
	RingMembers  int `json:"ring_members"`
	VirtualNodes int `json:"virtual_nodes"`
	// Routed counts keyed dispatches; StickyHits those that landed on the
	// ring primary (stickiness = sticky_hits/routed), Failovers those
	// diverted to a successor because the primary was ejected.
	Routed     uint64 `json:"routed"`
	StickyHits uint64 `json:"sticky_hits"`
	Failovers  uint64 `json:"failovers"`
	// Retried counts second attempts on the next healthy successor after
	// a transport error.
	Retried uint64 `json:"retried"`
	// Scatters counts fan-out requests (/api/services, /api/stats,
	// unknown-ticket searches); TicketRoutes direct ticket dispatches.
	Scatters     uint64 `json:"scatters"`
	TicketRoutes uint64 `json:"ticket_routes"`
	// Redeploys counts catalog replays onto an upstream that answered
	// 404 for a service the fleet owns (failover or rejoin warm-up).
	Redeploys uint64 `json:"redeploys"`
	// Ejections / Recoveries sum the upstream circuit transitions.
	Ejections  uint64 `json:"ejections"`
	Recoveries uint64 `json:"recoveries"`
	// ViewServices / ViewPulls describe the replicated UDDI view: its
	// size and periodic pull cycles.
	ViewServices int    `json:"view_services"`
	ViewPulls    uint64 `json:"view_pulls"`
	// Upstreams is the per-appliance health and traffic breakdown.
	Upstreams []UpstreamStats `json:"upstreams"`
}

// UpstreamStats is one appliance's health state and counters as the
// gateway sees them.
type UpstreamStats struct {
	ID               string `json:"id"`
	Base             string `json:"base"`
	State            string `json:"state"` // healthy | ejected | half-open
	ConsecutiveFails int    `json:"consecutive_fails"`
	Probes           uint64 `json:"probes"`
	ProbeFails       uint64 `json:"probe_fails"`
	HalfOpenTrials   uint64 `json:"half_open_trials"`
	Proxied          uint64 `json:"proxied"`
	ProxyErrors      uint64 `json:"proxy_errors"`
	Ejections        uint64 `json:"ejections"`
	Recoveries       uint64 `json:"recoveries"`
	Redeploys        uint64 `json:"redeploys"`
}

// counters groups the gateway-wide atomics.
type counters struct {
	routed, sticky, failovers atomic.Uint64
	retried                   atomic.Uint64
	scatters, ticketRoutes    atomic.Uint64
	redeploys                 atomic.Uint64
	viewPulls                 atomic.Uint64
}

// GatewayStats snapshots the gateway block.
func (g *Gateway) GatewayStats() Stats {
	now := g.clock.Now()
	st := Stats{
		RingMembers:  g.ring.size(),
		VirtualNodes: g.cfg.VirtualNodes,
		Routed:       g.ctr.routed.Load(),
		StickyHits:   g.ctr.sticky.Load(),
		Failovers:    g.ctr.failovers.Load(),
		Retried:      g.ctr.retried.Load(),
		Scatters:     g.ctr.scatters.Load(),
		TicketRoutes: g.ctr.ticketRoutes.Load(),
		Redeploys:    g.ctr.redeploys.Load(),
		ViewServices: g.view.size(),
		ViewPulls:    g.ctr.viewPulls.Load(),
	}
	for _, m := range g.members {
		m.mu.Lock()
		fails := m.fails
		base := m.base
		m.mu.Unlock()
		st.Ejections += m.ejections.Load()
		st.Recoveries += m.recoveries.Load()
		st.Upstreams = append(st.Upstreams, UpstreamStats{
			ID:               m.id,
			Base:             base,
			State:            m.stateName(now),
			ConsecutiveFails: fails,
			Probes:           m.probes.Load(),
			ProbeFails:       m.probeFails.Load(),
			HalfOpenTrials:   m.halfOpenTrials.Load(),
			Proxied:          m.proxied.Load(),
			ProxyErrors:      m.proxyErrs.Load(),
			Ejections:        m.ejections.Load(),
			Recoveries:       m.recoveries.Load(),
			Redeploys:        m.redeploys.Load(),
		})
	}
	return st
}
