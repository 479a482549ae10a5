package experiments

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridftp"
	"repro/internal/hop"
	"repro/internal/myproxy"
)

func chunked(c *appliance.Config) { c.ChunkedStaging, c.ChunkBytes = true, stageChunkBytes }

var stageTable = variantTable{"stage", []variant{
	{"stock", nil},
	{"chunked", chunked},
	{"chunked-gzip", func(c *appliance.Config) { chunked(c); c.WireCompression = true }},
}}

// StageVariants lists the staging data-plane ablation variants: the
// paper's monolithic uncompressed PUT per staging, the chunked
// content-addressed protocol over raw bytes, and the same protocol
// shipping the database's stored gzip stream.
var StageVariants = stageTable.names()

// stageChunkBytes is the chunk size the ablation runs with: small enough
// that a one-line edit of the test payload dirties exactly one chunk.
const stageChunkBytes = 64 << 10

// compressibleProgram builds a valid gsh program of roughly size bytes
// whose padding gzip actually compresses. gsh.Pad is deliberately
// pseudo-random ("passes as noise to gzip"), which would hide the
// WireCompression win, so this payload mixes a per-line counter and a
// short noise token into an otherwise repetitive comment block —
// compressible, but not degenerate.
func compressibleProgram(size int) string {
	var sb strings.Builder
	sb.Grow(size + 128)
	sb.WriteString("compute 1s\necho staged ok\n")
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; sb.Len() < size; i++ {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		tok := state * 0x2545f4914f6cdd1d
		fmt.Fprintf(&sb, "# block %06d %016x%016x%016x payload payload payload payload payload payload\n",
			i, tok, tok^0xa5a5a5a5a5a5a5a5, tok^0x3c3c3c3c3c3c3c3c)
	}
	return sb.String()
}

// perturbProgram returns an in-place (same length) modification of
// program: the noise token of the first comment line past the middle of
// the file is overwritten. One chunk changes, every other chunk's bytes —
// and so their digests — stay identical, which is what the re-publish
// dedup leg relies on. A program with no such line comes back unchanged.
func perturbProgram(program string) string {
	mid := len(program) / 2
	i := strings.Index(program[mid:], "\n# block ")
	if i < 0 {
		return program
	}
	// The 48-hex noise token sits after "\n# block NNNNNN " (16 bytes).
	tok := mid + i + len("\n# block 000000 ")
	return program[:tok] + strings.Repeat("f", 48) + program[tok+48:]
}

// AblationStage measures the staging data plane: cold stage wall-clock
// and WAN wire bytes, the re-publish delta (a small in-place edit of the
// executable), and resume after a mid-transfer fault. fileKB sizes the
// staged payload (default 1536 KB ≈ 18 s on the paper's ~85 KB/s uplink).
//
// With no explicit variants, every entry of StageVariants runs; the
// resume study always compares stock against chunked.
func AblationStage(opts Options, fileKB int, variants ...string) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 1536)
	table, err := stageTable.pick(variants...)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("one %d KB executable staged across the ~85 KB/s WAN; chunk size %d KB", fileKB, stageChunkBytes>>10),
		"stage_s = cold invocation minus warm invocation (staging cache serves the warm one), so auth/submit/poll overhead subtracts out",
		"wan_wire_b is the probe's WAN net-out during the leg (requests, tokens and manifests included); chunk_wire_b counts chunk payload bytes only",
		"chunked-gzip's chunk payload shrinks by exactly payload_gzip_ratio; stage_speedup_x trails wire_reduction_x only by fixed per-request overhead and poll-tick phase",
		"re-publish rewrites one comment token in place mid-file: raw chunking re-ships one chunk, stock re-ships everything",
		"chunked-gzip ships the database's stored gzip stream: fewest cold bytes, but the edit perturbs the gzip stream from that point on, so its re-publish delta is worse than raw chunking — compression and delta-dedup trade off",
		"the shared netsim link serialises bytes FIFO: chunk pipelining hides per-request latency, never multiplies bandwidth — wins come from shipping fewer bytes",
		"resume: the WAN faults after 60% of the file; chunks committed before the fault are not re-shipped on retry, stock restarts from byte zero",
	}}
	program := compressibleProgram(fileKB << 10)
	programV2 := perturbProgram(program)
	if len(program) != len(programV2) || program == programV2 {
		return nil, errors.New("experiments: stage payload perturbation failed")
	}

	// Session cache on (auth is measured elsewhere) and staging cache on (it
	// provides the warm no-transfer measurement). A tight poll keeps the
	// cold-minus-warm subtraction from being quantised by poll-tick phase
	// (the figures' 9 s default would put ±9 s of noise on an ~18 s
	// measurement).
	o := opts
	o.Appliance.SessionCache = true
	o.Appliance.StagingCache = true
	o.Appliance.PollInterval = time.Second
	err = table.run(o, func(variant string, r *rig) error {
		return stageColdRepublish(r, res, variant, program, programV2)
	})
	if err != nil {
		return nil, err
	}

	// Derived speedups against the stock baseline, so "reduced in
	// proportion to the gzip ratio" can be read straight off one row:
	// wire_reduction_x tracks the ratio exactly (bytes are deterministic),
	// stage_speedup_x approaches it from below by the fixed per-request
	// overhead (probe, commit and chunk-PUT round-trips).
	coldOf := func(variant, metric string) float64 {
		for _, row := range res.Rows {
			if row.Study == "stage-cold" && row.Variant == variant && row.Metric == metric {
				return row.Value
			}
		}
		return 0
	}
	for _, variant := range table.names() {
		if variant == "stock" {
			continue
		}
		row := res.at("stage-cold", variant)
		if base, v := coldOf("stock", "stage_s"), coldOf(variant, "stage_s"); base > 0 && v > 0 {
			row("stage_speedup_x", base/v)
		}
		if base, v := coldOf("stock", "wan_wire_b"), coldOf(variant, "wan_wire_b"); base > 0 && v > 0 {
			row("wire_reduction_x", base/v)
		}
	}

	if err := stageResume(opts, res, fileKB<<10); err != nil {
		return nil, fmt.Errorf("experiments: stage resume: %w", err)
	}
	return res, nil
}

// stageColdRepublish runs the cold, warm and re-publish legs on one
// booted rig and appends their rows.
func stageColdRepublish(r *rig, res *AblationResult, variant, program, programV2 string) error {
	// Prime the session cache with a separate tiny service so the cold
	// leg of the real payload pays for staging, not for the MyProxy
	// logon.
	warmup, err := r.deploy("warmup.gsh", "compute 1s\necho ok\n")
	if err != nil {
		return err
	}
	if _, err := warmup.call(nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	svc, err := r.deploy("stagejob.gsh", program)
	if err != nil {
		return err
	}
	gzRatio := 0.0
	if rec, err := r.app.DB.Table(core.ExecutablesTable).Stat("StagejobService"); err == nil && rec.CompressedSize > 0 {
		gzRatio = float64(len(program)) / float64(rec.CompressedSize)
	}

	// leg measures one invocation and what staging it shipped.
	leg := func(name string) (measurement, core.StageStats, error) {
		staged := since(r.app.OnServe.StageStats)
		m, err := r.measure(func() error { _, err := svc.call(nil); return err })
		if err != nil {
			return m, core.StageStats{}, fmt.Errorf("%s invoke: %w", name, err)
		}
		return m, staged(), nil
	}
	cold, coldStats, err := leg("cold")
	if err != nil {
		return err
	}
	warm, _, err := leg("warm")
	if err != nil {
		return err
	}

	// Re-publish: delete the service, upload the in-place edited payload,
	// invoke. The staging cache entry dies with the service, so staging
	// happens again — what differs per variant is how many bytes it costs.
	if err := r.app.OnServe.DeleteService("StagejobService"); err != nil {
		return err
	}
	if svc, err = r.deploy("stagejob.gsh", programV2); err != nil {
		return err
	}
	repub, repubStats, err := leg("re-publish")
	if err != nil {
		return err
	}

	row := res.at("stage-cold", variant)
	row("stage_s", max(cold.seconds-warm.seconds, 0))
	row("invoke_cold_s", cold.seconds)
	row("invoke_warm_s", warm.seconds)
	row("logical_b", float64(len(program)))
	row("wan_wire_b", cold.sum["net_out_total_b"])
	row("payload_gzip_ratio", gzRatio)
	row("chunk_wire_b", float64(coldStats.WireBytes))
	row("chunks_shipped", float64(coldStats.ChunksShipped))
	row("chunks_deduped", float64(coldStats.ChunksDeduped))
	row = res.at("stage-republish", variant)
	row("wan_wire_b", repub.sum["net_out_total_b"])
	row("chunk_wire_b", float64(repubStats.WireBytes))
	row("chunks_shipped", float64(repubStats.ChunksShipped))
	row("chunks_deduped", float64(repubStats.ChunksDeduped))
	return nil
}

// faultTransport errors every request body read once budget bytes have
// been consumed across the client's whole lifetime — an injected WAN
// fault that kills a transfer mid-flight. With a huge budget it doubles
// as a wire-byte counter.
type faultTransport struct {
	rt     http.RoundTripper
	budget atomic.Int64
}

var errInjectedFault = errors.New("experiments: injected WAN fault")

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.budget.Load() <= 0 {
		return nil, errInjectedFault
	}
	if req.Body != nil {
		req.Body = &faultBody{rc: req.Body, t: t}
	}
	return t.rt.RoundTrip(req)
}

func (t *faultTransport) consumed(initial int64) int64 { return initial - t.budget.Load() }

type faultBody struct {
	rc io.ReadCloser
	t  *faultTransport
}

func (b *faultBody) Read(p []byte) (int, error) {
	rem := b.t.budget.Load()
	if rem <= 0 {
		return 0, errInjectedFault
	}
	if int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := b.rc.Read(p)
	b.t.budget.Add(-int64(n))
	return n, err
}

func (b *faultBody) Close() error { return b.rc.Close() }

// stageResume drives the gridftp client directly (full protocol over the
// shaped WAN, the appliance path minus the portal) and compares what a
// retry after a mid-transfer fault costs: stock restarts from byte zero,
// chunked resumes from the committed chunk set.
func stageResume(opts Options, res *AblationResult, size int) error {
	r, err := newRig(opts)
	if err != nil {
		return err
	}
	defer r.close()
	ftpURL := r.env.FTPURLs[r.env.Grid.SiteNames()[0]]
	dial := r.uplink.DialContext
	cred, err := (&myproxy.Client{Addr: r.env.MyProxyAddr, Dial: dial}).Get("alice", "pw", time.Hour)
	if err != nil {
		return err
	}
	newClient := func(budget int64) (*gridftp.Client, *faultTransport) {
		ft := &faultTransport{rt: hop.NewTransport(dial)}
		ft.budget.Store(budget)
		return &gridftp.Client{BaseURL: ftpURL, Cred: cred, Transport: ft}, ft
	}

	// Enough chunks that some are fully committed before the fault even
	// with every upload worker mid-chunk — a payload of only a few chunks
	// could die with all of them partially sent and nothing to resume.
	if size < 16*stageChunkBytes {
		size = 16 * stageChunkBytes
	}
	payload := []byte(compressibleProgram(size))
	faultAfter := int64(len(payload)) * 6 / 10
	const countOnly = int64(1) << 60

	// Stock: the monolithic PUT dies at 60%; the retry restarts from byte
	// zero and re-ships the whole file.
	client, _ := newClient(faultAfter)
	if _, err := client.Put("resume-stock.dat", payload); err == nil {
		return errors.New("experiments: stock transfer survived the injected fault")
	}
	retry, counter := newClient(countOnly)
	if _, err := retry.Put("resume-stock.dat", payload); err != nil {
		return fmt.Errorf("stock retry: %w", err)
	}
	row := res.at("stage-resume", "stock")
	row("wire_before_fault_b", float64(faultAfter))
	row("retry_wire_b", float64(counter.consumed(countOnly)))

	// Chunked: chunks committed before the fault stay in the site's
	// content-addressed store; the retry's have-probe finds them and
	// ships only the remainder.
	client, _ = newClient(faultAfter)
	if _, err := client.PutChunked("resume-chunked.dat", payload, nil, stageChunkBytes); err == nil {
		return errors.New("experiments: chunked transfer survived the injected fault")
	}
	retry, counter = newClient(countOnly)
	stats, err := retry.PutChunked("resume-chunked.dat", payload, nil, stageChunkBytes)
	if err != nil {
		return fmt.Errorf("chunked retry: %w", err)
	}
	if !stats.Resumed {
		return errors.New("experiments: chunked retry did not resume from committed chunks")
	}
	row = res.at("stage-resume", "chunked")
	row("wire_before_fault_b", float64(faultAfter))
	row("retry_wire_b", float64(counter.consumed(countOnly)))
	row("retry_chunks_shipped", float64(stats.ChunksShipped))
	row("retry_chunks_resumed", float64(stats.ChunksDeduped))
	return nil
}
