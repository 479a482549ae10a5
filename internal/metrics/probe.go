package metrics

import "time"

// Probe is the hook components use to report resource consumption, and
// the one place the host's cost model is known: a component names what
// it did (Decompress, JobSubmit, Request, ...) and the probe prices it by
// its Cost. A nil *Probe accounts nothing, so production code paths can
// be instrumented unconditionally. CPU charges also *take time*: they
// sleep for the modelled duration, which spreads a CPU-heavy phase
// (decompressing a blob, building a service) as a utilisation peak over
// the correct span, exactly as in the paper's figures.
type Probe struct {
	rec  *Recorder
	cost Cost
}

// NewProbe returns a probe feeding rec and charging by cost.
func NewProbe(rec *Recorder, cost Cost) *Probe { return &Probe{rec: rec, cost: cost} }

// noCost is a nil probe's model: it charges nothing.
var noCost Cost

func (p *Probe) model() *Cost {
	if p == nil {
		return &noCost
	}
	return &p.cost
}

// Compress charges gzip over n raw bytes.
func (p *Probe) Compress(n int) { p.burnFor(n, p.model().CompressBps) }

// Decompress charges inflating n raw bytes.
func (p *Probe) Decompress(n int) { p.burnFor(n, p.model().DecompressBps) }

// Receive charges receiving and buffering an n-byte upload.
func (p *Probe) Receive(n int) { p.burnFor(n, p.model().ReceiveBps) }

// ServiceBuild charges building and deploying one service.
func (p *Probe) ServiceBuild() { p.burn(p.model().ServiceBuild) }

// JobSubmit charges generating a job description and submitting it.
func (p *Probe) JobSubmit() { p.burn(p.model().JobSubmit) }

// Auth charges retrieving and verifying a credential.
func (p *Probe) Auth() { p.burn(p.model().Auth) }

// Request charges the container's handling of one HTTP request.
func (p *Probe) Request() { p.burn(p.model().RequestHandling) }

// burn models a CPU burst: it blocks for d of virtual time and accounts d
// of CPU busy time spread over the burst.
func (p *Probe) burn(d time.Duration) {
	if d <= 0 || p.rec == nil {
		return
	}
	start := time.Now()
	time.Sleep(d)
	p.rec.AccountSpan(CPU, start, d, float64(d))
}

// burnFor models processing n bytes at bps bytes/second of CPU-bound work.
// Zero bps is a no-op.
func (p *Probe) burnFor(n int, bps float64) {
	if bps > 0 && n > 0 {
		p.burn(time.Duration(float64(n) / bps * float64(time.Second)))
	}
}

// DiskRead accounts an n-byte read, at once: disk time is not modelled.
func (p *Probe) DiskRead(n int) { p.disk(DiskRead, n) }

// DiskWrite accounts an n-byte write, at once.
func (p *Probe) DiskWrite(n int) { p.disk(DiskWrite, n) }

func (p *Probe) disk(k Kind, n int) {
	if p != nil && n > 0 {
		p.account(k, time.Now(), n)
	}
}

// NetIn accounts n bytes received at instant at, as netsim sees them.
func (p *Probe) NetIn(at time.Time, n int) { p.account(NetIn, at, n) }

// NetOut accounts n bytes sent at instant at.
func (p *Probe) NetOut(at time.Time, n int) { p.account(NetOut, at, n) }

func (p *Probe) account(k Kind, at time.Time, n int) {
	if p != nil && p.rec != nil {
		p.rec.Account(k, at, float64(n))
	}
}

// Cost is the CPU cost model a Probe charges, for the 2010-era appliance
// host the paper measured. Rates are bytes per second of one core;
// durations are fixed bursts. The absolute values are calibration knobs —
// the figure shapes depend only on their relative magnitudes.
type Cost struct {
	// CompressBps / DecompressBps model gzip in the blob database. The
	// paper's Fig. 6 attributes a CPU peak to "loading and decompressing
	// the file from the database".
	CompressBps   float64
	DecompressBps float64
	// ServiceBuild models the ANT build + aar packaging burst of Fig. 8.
	ServiceBuild time.Duration
	// JobSubmit models job-description generation plus the GRAM submit
	// round (the second CPU peak of Fig. 6).
	JobSubmit time.Duration
	// Auth models credential retrieval/verification CPU.
	Auth time.Duration
	// RequestHandling models servlet-container overhead per HTTP request
	// ("tomcat handling the request and loading the java-classes").
	RequestHandling time.Duration
	// ReceiveBps models per-byte CPU spent receiving and buffering an
	// upload ("the CPU utilization is very high due to the reception and
	// storage of the file", Fig. 8 commentary).
	ReceiveBps float64
}

// DefaultCost returns the calibration used by the experiments.
func DefaultCost() Cost {
	return Cost{
		CompressBps:     8 << 20,  // 8 MB/s gzip on a 2010 core
		DecompressBps:   24 << 20, // decompression ~3x faster
		ServiceBuild:    2500 * time.Millisecond,
		JobSubmit:       1200 * time.Millisecond,
		Auth:            400 * time.Millisecond,
		RequestHandling: 300 * time.Millisecond,
		ReceiveBps:      32 << 20,
	}
}
