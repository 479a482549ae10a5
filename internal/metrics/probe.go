package metrics

import "time"

// Probe is the hook components use to report resource consumption. A nil
// *Probe is valid and discards everything, so production code paths can be
// instrumented unconditionally.
//
// CPU and disk operations also *take time*: Burn and
// the disk helpers sleep for the modelled duration, which is what makes
// CPU-heavy phases (decompressing a blob, building a service) show up as
// utilisation peaks spread over the correct wall-clock span, exactly as in
// the paper's figures.
type Probe struct {
	rec *Recorder
	// DiskReadBps / DiskWriteBps model hard-disk bandwidth. Zero means the
	// operation is instantaneous (bytes still accounted).
	DiskReadBps  float64
	DiskWriteBps float64
}

// NewProbe returns a probe feeding rec.
func NewProbe(rec *Recorder) *Probe {
	return &Probe{rec: rec}
}

// Recorder returns the underlying recorder, or nil.
func (p *Probe) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Burn models a CPU burst: it blocks for d of virtual time and accounts d
// of CPU busy time spread over the burst.
func (p *Probe) Burn(d time.Duration) {
	if p == nil || p.rec == nil || d <= 0 {
		return
	}
	start := time.Now()
	time.Sleep(d)
	p.rec.AccountSpan(CPU, start, d, float64(d))
}

// BurnFor models processing n bytes at bps bytes/second of CPU-bound work
// (compression, checksumming, service build). Zero bps is a no-op.
func (p *Probe) BurnFor(n int, bps float64) {
	if p == nil || bps <= 0 || n <= 0 {
		return
	}
	p.Burn(time.Duration(float64(n) / bps * float64(time.Second)))
}

// DiskRead accounts (and paces, if DiskReadBps is set) an n-byte read.
func (p *Probe) DiskRead(n int) {
	p.disk(DiskRead, n, func() float64 { return p.DiskReadBps })
}

// DiskWrite accounts (and paces, if DiskWriteBps is set) an n-byte write.
func (p *Probe) DiskWrite(n int) {
	p.disk(DiskWrite, n, func() float64 { return p.DiskWriteBps })
}

func (p *Probe) disk(k Kind, n int, bps func() float64) {
	if p == nil || p.rec == nil || n <= 0 {
		return
	}
	start := time.Now()
	rate := bps()
	if rate <= 0 {
		p.rec.Account(k, start, float64(n))
		return
	}
	d := time.Duration(float64(n) / rate * float64(time.Second))
	time.Sleep(d)
	p.rec.AccountSpan(k, start, d, float64(n))
}

// NetIn accounts n bytes received at instant at. Called by netsim as
// traffic actually arrives; no pacing happens here.
func (p *Probe) NetIn(at time.Time, n int) {
	if p == nil || p.rec == nil {
		return
	}
	p.rec.Account(NetIn, at, float64(n))
}

// NetOut accounts n bytes sent at instant at.
func (p *Probe) NetOut(at time.Time, n int) {
	if p == nil || p.rec == nil {
		return
	}
	p.rec.Account(NetOut, at, float64(n))
}

// Cost collects the CPU cost model for the 2010-era appliance host the
// paper measured. Rates are bytes per second of one core; durations are
// fixed bursts. The absolute values are calibration knobs — the figure
// shapes depend only on their relative magnitudes.
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
