package gateway

import "time"

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
	// /api/audit, /registry); TicketRoutes ticket-addressed requests,
	// each walked along its ticket's service ring.
	Scatters     uint64 `json:"scatters"`
	TicketRoutes uint64 `json:"ticket_routes"`
	// Redeploys counts catalog replays onto an upstream that answered
	// 404 for a service the fleet owns (failover or rejoin warm-up).
	Redeploys uint64 `json:"redeploys"`
	// Ejections / Recoveries sum the upstream circuit transitions.
	Ejections  uint64 `json:"ejections"`
	Recoveries uint64 `json:"recoveries"`
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
	HalfOpenTrials   uint64 `json:"half_open_trials"`
	Proxied          uint64 `json:"proxied"`
	ProxyErrors      uint64 `json:"proxy_errors"`
	Ejections        uint64 `json:"ejections"`
	Recoveries       uint64 `json:"recoveries"`
	Redeploys        uint64 `json:"redeploys"`
}

// GatewayStats snapshots the gateway block.
func (g *Gateway) GatewayStats() Stats {
	now := time.Now()
	st := g.stats.Snapshot()
	st.RingMembers, st.VirtualNodes = g.ring.size(), virtualNodes
	for _, m := range g.members {
		up := m.stats(now)
		st.Ejections += up.Ejections
		st.Recoveries += up.Recoveries
		st.Upstreams = append(st.Upstreams, up)
	}
	return st
}
