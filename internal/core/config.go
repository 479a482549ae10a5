package core

import (
	"context"
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
// on, and every knob of the invocation pipeline (each strategy field
// selects one step's strategy, in newSteps) and the database under it.
// It is declared here, in the package that reads most of it, and nowhere
// else — appliance.Config is this type. The zero value of every knob is
// the paper's behaviour; appliance.Paper and appliance.Production are the
// two supported values.
type Config struct {
	// Endpoints locates the production Grid's access points.
	Endpoints cyberaide.Endpoints
	// Probe accounts the host's resources by its cost model; may be nil.
	Probe *metrics.Probe
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
	// StagingCache selects the stage step's staging cache: an executable
	// staged at the target site is not sent again, one staged at a sibling
	// is pulled across site-to-site. The paper re-sends it, files "will
	// even be reloaded when executed a 2nd time".
	StagingCache bool
	// DirectDBWrite selects the store step's direct insert, without the
	// paper's temporary-file spill ("the file is first stored temporarily
	// and then in the database").
	DirectDBWrite bool
	// SessionCache selects the authenticate step's session cache: one
	// session per owner, reused until its proxy nears expiry, instead of
	// the paper's MyProxy logon per invocation.
	SessionCache bool
	// StatsTTL, when positive, selects the place step's statistics cache:
	// one scheduler snapshot serves placements for that long, instead of
	// the paper's fetch per invocation.
	StatsTTL time.Duration
	// PushEvents selects the collect step's push collector: one event
	// stream per session, instead of the paper's tentative poller.
	PushEvents bool
	// CoalesceStaging makes the stage step share one transfer among
	// concurrent stagings of an executable to a site, so a cold burst of N
	// invocations costs one WAN transfer per site instead of N.
	CoalesceStaging bool
	// ChunkedStaging selects the stage step's chunked wire, instead of the
	// paper's one monolithic PUT per staging.
	ChunkedStaging bool
	// WireCompression makes the chunked wire ship the stored gzip stream
	// instead of the raw executable; it needs ChunkedStaging.
	WireCompression bool
	// DataAwarePlacement selects the place step's data-aware order: by load
	// and by the wire chunks a site already holds, instead of the paper's
	// load alone; it needs ChunkedStaging.
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

	// Trace, when non-nil, records a span tree per invocation into this
	// collector and propagates its context to every grid service
	// (X-Grid-Trace); shared with gridenv.Options.Trace, the trees cross
	// services. Nil, the default, leaves the invoke hot path untouched.
	Trace *trace.Collector
	// Tenancy, when non-nil, boots the multi-tenant control plane (API
	// keys, policy, rate limits, fair-share quotas, audit); cmd/onserve
	// loads it from -keys-file. Nil keeps the appliance anonymous.
	Tenancy *tenant.Config
}

// Validate refuses knobs that contradict each other, as New would.
func (c Config) Validate() error {
	_, err := newSteps(c, nil)
	return err
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
