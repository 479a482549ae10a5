package core

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gridftp"
	"repro/internal/wsdl"
)

// flakyTransport fails the first failures matching grid-bound file PUTs
// with a transport error, then passes everything through — the WAN blip
// the bounded upload retry exists for.
type flakyTransport struct {
	failures atomic.Int32
}

func (ft *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/ftp/") {
		if ft.failures.Add(-1) >= 0 {
			return nil, errors.New("injected transport blip")
		}
	}
	return overGrid.RoundTrip(req)
}

func TestUploadRetriesTransientFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		ft := &flakyTransport{}
		ft.failures.Store(1)
		f := newFixtureHTTP(t, ft, nil)
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatalf("invocation did not survive the blip: %v", err)
		}
		st := f.ons.SubmitStats()
		if st.UploadRetries != 1 {
			t.Fatalf("upload retries %d, want 1", st.UploadRetries)
		}
		if st.Uploads != 2 {
			t.Fatalf("uploads %d, want 2 (failed attempt + retry)", st.Uploads)
		}
	})
}

func TestUploadGivesUpAfterSecondFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		ft := &flakyTransport{}
		ft.failures.Store(2)
		f := newFixtureHTTP(t, ft, func(cfg *Config) {
			// One candidate site: no failover to mask the exhausted retry.
			cfg.StatsTTL = 0
		})
		f.uploadDemo(t)
		_, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"})
		// Both attempts at the first site fail; the pipeline moves on to the
		// second candidate site, whose transfer now passes through. Either
		// way exactly one retry was spent per failed site pair.
		st := f.ons.SubmitStats()
		if err != nil && st.UploadRetries == 0 {
			t.Fatalf("no retry before giving up: %v", err)
		}
		if st.UploadRetries != 1 {
			t.Fatalf("upload retries %d, want 1 (bounded)", st.UploadRetries)
		}
	})
}

func TestSessionFaultNotRetried(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		_, err := f.ons.uploadExecutable("no-such-session", heldExecutable(f.ons, "XService", []byte("x")), "siteA", nil)
		if !errors.Is(err, cyberaide.ErrNoSession) {
			t.Fatalf("got %v", err)
		}
		st := f.ons.SubmitStats()
		if st.UploadRetries != 0 {
			t.Fatalf("session fault consumed %d retries", st.UploadRetries)
		}
		if st.Uploads != 1 {
			t.Fatalf("uploads %d, want 1", st.Uploads)
		}
	})
}

func TestRetryableStageErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{cyberaide.ErrNoSession, false},
		{cyberaide.ErrExpired, false},
		{cyberaide.ErrUnknownSite, false},
		{fmt.Errorf("wrap: %w", gridftp.ErrDenied), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrBadInput), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrNoFile), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrChecksum), true},
		{fmt.Errorf("wrap: %w", gridftp.ErrNoChunk), true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("connection reset by peer"), true},
	}
	for _, c := range cases {
		if got := retryableStageErr(c.err); got != c.want {
			t.Errorf("retryableStageErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestChunkedStagingEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.ChunkedStaging = true
			cfg.ChunkBytes = 4 << 10
			cfg.WireCompression = true
		})
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "3"}); err != nil {
			t.Fatal(err)
		}
		st := f.ons.StageStats()
		if st.ChunkedUploads != 1 {
			t.Fatalf("chunked uploads %d, want 1", st.ChunkedUploads)
		}
		if st.ChunksShipped == 0 || st.LogicalBytes == 0 {
			t.Fatalf("stats not accounted: %+v", st)
		}
		if st.Fallbacks != 0 {
			t.Fatalf("fell back to plain PUT against a chunk-capable site: %+v", st)
		}
	})
}

func TestChunkedStagingOffKeepsStatsZero(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "3"}); err != nil {
			t.Fatal(err)
		}
		if st := f.ons.StageStats(); st != (StageStats{}) {
			t.Fatalf("stock staging touched chunk counters: %+v", st)
		}
	})
}

// TestConcurrentChunkedStagingCoalesced races many cold invocations of
// one service through the chunked data plane with staging coalescing on:
// per site, one invocation transfers and the rest share its flight.
func TestConcurrentChunkedStagingCoalesced(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.StagingCache = true
			cfg.CoalesceStaging = true
			cfg.ChunkedStaging = true
			cfg.ChunkBytes = 4 << 10
			cfg.WireCompression = true
		})
		f.uploadDemo(t)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "5"}); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		st := f.ons.SubmitStats()
		// Two candidate sites at most: everything beyond one transfer per
		// site must have been coalesced or served by the staging cache.
		if st.Uploads > 2 {
			t.Fatalf("uploads %d, want at most one per site", st.Uploads)
		}
		if sg := f.ons.StageStats(); sg.ChunkedUploads != st.Uploads {
			t.Fatalf("chunked uploads %d, uploads %d", sg.ChunkedUploads, st.Uploads)
		}
	})
}

// TestConcurrentChunkedStagingManyServices races distinct services —
// and so distinct transfers, often to different sites — through the
// shared chunk counters and the per-site chunk stores.
func TestConcurrentChunkedStagingManyServices(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.StagingCache = true
			cfg.CoalesceStaging = true
			cfg.ChunkedStaging = true
			cfg.ChunkBytes = 4 << 10
		})
		const services = 4
		names := make([]string, services)
		for i := range names {
			file := fmt.Sprintf("job%c.gsh", 'a'+i)
			program := fmt.Sprintf("echo job %d\ncompute 1s\n%s", i, strings.Repeat("# filler line\n", 40*(i+1)))
			rec, err := f.ons.UploadAndGenerate("alice", file, "stage race", []wsdl.ParamDef{}, []byte(program))
			if err != nil {
				t.Fatal(err)
			}
			names[i] = rec.Name
		}
		var wg sync.WaitGroup
		errs := make(chan error, services)
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := f.ons.ExecuteAndWait(name, nil); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
				}
			}(name)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		st := f.ons.StageStats()
		if st.ChunkedUploads != services {
			t.Fatalf("chunked uploads %d, want %d", st.ChunkedUploads, services)
		}
		if st.ChunksShipped == 0 || st.LogicalBytes == 0 {
			t.Fatalf("stats not accounted: %+v", st)
		}
	})
}
