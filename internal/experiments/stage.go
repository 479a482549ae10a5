package experiments

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gridftp"
	"repro/internal/hop"
	"repro/internal/myproxy"
)

// stageChunkBytes is the chunk size the resume legs hand the gridftp
// client.
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
// scenario of the knobs study relies on. A program with no such line
// comes back unchanged.
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

// AblationStage measures what a retry after a mid-transfer fault costs
// the staging data plane: the paper's monolithic PUT restarts from byte
// zero, the chunked protocol resumes from the chunks committed before the
// fault. fileKB sizes the payload (default 1536 KB). What the chunk
// protocol saves on a cold or a re-published staging is the knobs
// study's (ChunkedStaging, WireCompression).
func AblationStage(opts Options, fileKB int) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 1536)
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("one %d KB executable over the ~85 KB/s WAN, straight through the gridftp client; chunk size %d KB", fileKB, stageChunkBytes>>10),
		"resume: the WAN faults after 60% of the file; chunks committed before the fault are not re-shipped on retry, stock restarts from byte zero",
	}}
	if err := stageResume(opts, res, fileKB<<10); err != nil {
		return nil, fmt.Errorf("experiments: stage resume: %w", err)
	}
	return res, nil
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
	return withRig(opts, func(r *rig) error { return r.stageResume(res, size) })
}

// stageResume is the package func's comparison on its rig.
func (r *rig) stageResume(res *AblationResult, size int) error {
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
