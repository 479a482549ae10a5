package core

import (
	"context"
	"errors"
	"net"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
)

// Config describes an appliance image: where its Grid is, what it runs
// on, and every knob of the invocation pipeline and the database under
// it. It is declared here, in the package that reads most of it, and
// nowhere else — appliance.Config is this type. The zero value of every
// knob is the paper's behaviour; appliance.Paper and
// appliance.Production are the two supported values.
type Config struct {
	// Endpoints locates the production Grid's access points.
	Endpoints cyberaide.Endpoints
	// Probe accounts the appliance host's resources; may be nil.
	Probe *metrics.Probe
	// Cost is the CPU cost model; zero value disables cost burning.
	Cost metrics.Cost
	// DBDir persists the database; empty keeps it in memory.
	DBDir string
	// GridDial is how the appliance reaches the grid: MyProxy's connection,
	// and GRAM's and GridFTP's through hop.NewTransport(GridDial). Nil dials
	// TCP, with GRAM and GridFTP on hop.Shared(). Experiments shape the WAN
	// here; the user-facing link is shaped by the listener Boot is given.
	GridDial func(ctx context.Context, network, addr string) (net.Conn, error)

	// PollInterval overrides DefaultPollInterval.
	PollInterval time.Duration
	// InvocationTimeout overrides DefaultInvocationTimeout (watchdog).
	InvocationTimeout time.Duration
	// StagingCache, when true, skips re-uploading an executable whose
	// checksum is already staged at the target site. The paper leaves
	// this off — files "will even be reloaded when executed a 2nd time" —
	// and suggests the cache as an improvement; it is benchmarked as an
	// ablation.
	StagingCache bool
	// DirectDBWrite, when true, skips the temporary-file spill before the
	// database insert. The paper's implementation has the double write
	// ("the file is first stored temporarily and then in the database");
	// the fix is benchmarked as an ablation.
	DirectDBWrite bool
	// SessionCache, when true, reuses one authenticated agent session per
	// owner across invocations until the delegated proxy nears expiry,
	// instead of performing a fresh MyProxy logon per invocation (the
	// paper's behaviour — "Before any use of the Grid is possible, an
	// authentication is required"). Cached sessions are invalidated on
	// auth faults and the invocation retried once with a fresh logon.
	SessionCache bool
	// StatsTTL, when positive, caches the gatekeeper scheduler-statistics
	// snapshot pickSites orders sites by, so site selection stops costing
	// one SOAP round-trip per invocation under load. Zero keeps the
	// paper-faithful fetch-per-invocation.
	StatsTTL time.Duration
	// PushEvents replaces the paper's tentative poller — one goroutine
	// per invocation, a status RPC and a full stdout fetch every
	// PollInterval — with the gatekeeper's long-lived event stream: one
	// /gram/events connection per session multiplexes the state
	// transitions and stdout bumps of that session's jobs, so steady-state
	// status RPCs drop to zero and completion is detected at push-delivery
	// latency instead of the poll interval. A stdout snapshot of up to
	// gram.InlineOutputMax rides in the frame itself; larger ones take a
	// conditional /gram/output fetch. The fallback ladder degrades in
	// place: against a stock gatekeeper (404 on /gram/events) or after its
	// stream died, a session's worker polls its own in-flight invocations
	// (one batched status RPC per session per tick, stdout fetched only
	// when its version moved); reconnects resume from a Last-Event-ID
	// cursor so no transition is lost. Watchdog and cancel semantics are
	// the poller's.
	PushEvents bool
	// CoalesceStaging single-flights concurrent stagings of one
	// executable to one site, so a cold burst of N invocations costs one
	// WAN transfer per site instead of N. Off by default: the paper
	// re-stages per invocation.
	CoalesceStaging bool
	// ChunkedStaging routes executable staging through the chunked,
	// content-addressed GridFTP protocol: the site is probed for chunks
	// it already holds, only missing chunks cross the WAN, and a transfer
	// killed mid-flight resumes from the committed chunk set instead of
	// byte zero (real GridFTP's partial transfers and restart markers).
	// Off by default: the paper ships every staging as one monolithic
	// PUT. Sites whose servers predate the chunk protocol transparently
	// fall back to that PUT.
	ChunkedStaging bool
	// WireCompression, with ChunkedStaging, ships the database's stored
	// gzip bytes across the WAN instead of the inflated executable; the
	// site decompresses at commit. Off by default (the paper stages the
	// raw file). Compressed chunking trades dedup granularity for wire
	// bytes: a mid-file edit perturbs the gzip stream from that point on,
	// so re-publish dedup works best with WireCompression off.
	WireCompression bool
	// DataAwarePlacement replaces load-only site ordering with a scorer
	// that also weighs how many of the service's wire chunks each site
	// already possesses (discovered through the chunk store's dedup
	// probe, cached per service|site with singleflight) and the
	// estimated cold-transfer time of the missing bytes over the shaped
	// WAN. Off by default: the paper orders sites by load alone; needs
	// ChunkedStaging. A probe failure degrades the site to
	// possession-unknown, never fails placement.
	DataAwarePlacement bool

	// BlobCacheBytes / GroupCommit tune the blob database (see
	// blobdb.Options); zero values keep the stock behaviour. The blob
	// cache sits in front of Table.Get, which nothing in the appliance
	// calls any more: neither profile sets it, cmd/bench's prod profile
	// still does (ROADMAP 4b).
	BlobCacheBytes int64
	GroupCommit    bool
	// WALShards is the shard count a new DBDir is created with (0 means
	// one; an existing directory keeps its own) and AutoCompact runs the
	// background compactor (see blobdb.Options). Both profiles persist on
	// the same storage engine; these only size and tend it.
	WALShards   int
	AutoCompact bool

	// Trace, when non-nil, turns on distributed tracing: a span tree per
	// invocation (logon, DB fetch, staging, submit, collection) recorded
	// into this collector, with context propagated to every grid service
	// via the X-Grid-Trace header. Share one collector with
	// gridenv.Options.Trace to get single cross-service trees. Nil — the
	// default — leaves the invoke hot path untouched.
	Trace *trace.Collector
	// Tenancy, when non-nil, boots the multi-tenant control plane (API
	// keys, policy, rate limits, fair-share quotas, audit) from this
	// declarative config; cmd/onserve loads it from -keys-file. Nil —
	// the default — keeps the appliance fully anonymous.
	Tenancy *tenant.Config
}

// Validate refuses a configuration whose knobs contradict each other,
// before anything is opened or bound for it. The chunk store is the
// possession oracle placement probes and the only wire the stored-gzip
// path rides: without it these knobs would be accepted and do nothing,
// or pay probe RPCs that can never score.
func (c Config) Validate() error {
	if !c.ChunkedStaging && (c.DataAwarePlacement || c.WireCompression) {
		return errors.New("onserve: DataAwarePlacement and WireCompression require ChunkedStaging")
	}
	return nil
}

// Parts is what the appliance builds from a Config and hands to New:
// components, no settings.
type Parts struct {
	// DB stores uploaded executables.
	DB *blobdb.DB
	// Container hosts the generated SOAP services.
	Container *soap.Server
	// Registry is the UDDI registry services are published into.
	Registry *uddi.Registry
	// Agent mediates all Grid access.
	Agent *cyberaide.Agent
	// BaseURL is the public root of the SOAP container, used in WSDL
	// endpoint addresses and UDDI records.
	BaseURL string
	// Tracing records into Config.Trace; nil (tracing off) is a
	// zero-allocation no-op.
	Tracing *trace.Tracer
	// Tenancy is the control plane built from Config.Tenancy. The core
	// consults it for per-site allow-lists when placing work; admission
	// itself happens at the portal edge. Nil performs no tenancy work.
	Tenancy *tenant.Controller
}
