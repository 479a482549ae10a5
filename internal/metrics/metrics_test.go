package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vtime"
)

func newTestRecorder() (*vtime.Manual, *Recorder) {
	clk := vtime.NewManual(time.Unix(0, 0))
	return clk, NewRecorder(clk, 3*time.Second)
}

func TestAccountGoesToCorrectBucket(t *testing.T) {
	clk, rec := newTestRecorder()
	rec.Account(NetIn, clk.Now(), 100)
	clk.Advance(7 * time.Second) // bucket 2
	rec.Account(NetIn, clk.Now(), 50)
	s := rec.Series()
	if len(s) != 3 {
		t.Fatalf("got %d buckets, want 3", len(s))
	}
	if s[0].NetInBytes != 100 || s[1].NetInBytes != 0 || s[2].NetInBytes != 50 {
		t.Fatalf("unexpected series %+v", s)
	}
}

func TestAccountSpanSplitsAcrossBuckets(t *testing.T) {
	_, rec := newTestRecorder()
	// 6 seconds of span starting at t=0 covers buckets 0 and 1 evenly.
	rec.AccountSpan(DiskWrite, time.Unix(0, 0), 6*time.Second, 600)
	s := rec.Series()
	if len(s) != 2 {
		t.Fatalf("got %d buckets, want 2", len(s))
	}
	if math.Abs(s[0].DiskWriteBytes-300) > 1e-6 || math.Abs(s[1].DiskWriteBytes-300) > 1e-6 {
		t.Fatalf("uneven split: %+v", s)
	}
}

func TestAccountSpanPartialBucket(t *testing.T) {
	_, rec := newTestRecorder()
	// Span [2s, 5s): 1s in bucket 0, 2s in bucket 1.
	rec.AccountSpan(NetOut, time.Unix(2, 0), 3*time.Second, 900)
	s := rec.Series()
	if math.Abs(s[0].NetOutBytes-300) > 1e-6 || math.Abs(s[1].NetOutBytes-600) > 1e-6 {
		t.Fatalf("wrong partial split: %+v", s)
	}
}

func TestCPUPercent(t *testing.T) {
	_, rec := newTestRecorder()
	// 1.5s of CPU busy in a 3s bucket = 50%.
	rec.AccountSpan(CPU, time.Unix(0, 0), 1500*time.Millisecond, float64(1500*time.Millisecond))
	s := rec.Series()
	if math.Abs(s[0].CPUPct-50) > 1e-6 {
		t.Fatalf("cpu pct = %v, want 50", s[0].CPUPct)
	}
}

func TestTotalConservation(t *testing.T) {
	f := func(spans []struct {
		StartSec uint16
		DurMs    uint16
		Amount   uint32
	}) bool {
		_, rec := newTestRecorder()
		var want float64
		for _, sp := range spans {
			amt := float64(sp.Amount % 1_000_000)
			rec.AccountSpan(NetIn, time.Unix(int64(sp.StartSec%3600), 0),
				time.Duration(sp.DurMs)*time.Millisecond, amt)
			want += amt
		}
		got := rec.Total(NetIn)
		return math.Abs(got-want) < 1e-3*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesDense(t *testing.T) {
	clk, rec := newTestRecorder()
	clk.Advance(30 * time.Second)
	rec.Account(NetIn, clk.Now(), 1)
	s := rec.Series()
	if len(s) != 11 {
		t.Fatalf("series length %d, want 11 (buckets 0..10)", len(s))
	}
	for i := 0; i < 10; i++ {
		if s[i].NetInBytes != 0 {
			t.Fatalf("bucket %d not empty", i)
		}
	}
}

func TestSeriesEmpty(t *testing.T) {
	_, rec := newTestRecorder()
	if s := rec.Series(); s != nil {
		t.Fatalf("expected nil series, got %v", s)
	}
}

func TestNegativeTimeClampsToBucketZero(t *testing.T) {
	_, rec := newTestRecorder()
	rec.Account(NetIn, time.Unix(-100, 0), 42)
	s := rec.Series()
	if len(s) != 1 || s[0].NetInBytes != 42 {
		t.Fatalf("pre-epoch accounting not clamped: %+v", s)
	}
}

func TestCSVHeaderAndRows(t *testing.T) {
	_, rec := newTestRecorder()
	rec.Account(NetIn, time.Unix(0, 0), 10)
	out := CSV(rec.Series())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_sec,cpu_pct") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0.0,0,0,10,0") {
		t.Fatalf("bad row %q", lines[1])
	}
}

func TestChartRendersPeaks(t *testing.T) {
	_, rec := newTestRecorder()
	rec.Account(NetIn, time.Unix(0, 0), 100)
	rec.Account(NetIn, time.Unix(9, 0), 10)
	chart := Chart("net in", "B", rec.Series(), func(s Sample) float64 { return s.NetInBytes })
	if !strings.Contains(chart, "#") {
		t.Fatalf("chart has no marks:\n%s", chart)
	}
	if !strings.Contains(chart, "peak 100 B") {
		t.Fatalf("chart missing peak annotation:\n%s", chart)
	}
}

func TestChartFlatZero(t *testing.T) {
	_, rec := newTestRecorder()
	rec.Account(CPU, time.Unix(0, 0), 0.0) // nothing recorded
	rec.Account(NetIn, time.Unix(3, 0), 5) // force non-empty series
	chart := Chart("cpu", "%", rec.Series(), func(s Sample) float64 { return s.CPUPct })
	if !strings.Contains(chart, "flat zero") {
		t.Fatalf("expected flat-zero annotation:\n%s", chart)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CPU: "cpu_busy", DiskRead: "disk_read", DiskWrite: "disk_write",
		NetIn: "net_in", NetOut: "net_out", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRecorderRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(vtime.Real{}, 0)
}

func TestNilProbeSafe(t *testing.T) {
	var p *Probe
	p.Burn(time.Second)
	p.BurnFor(100, 1000)
	p.DiskRead(10)
	p.DiskWrite(10)
	p.NetIn(time.Now(), 5)
	p.NetOut(time.Now(), 5)
	if p.Recorder() != nil {
		t.Fatal("nil probe recorder should be nil")
	}
	if _, ok := p.Clock().(vtime.Real); !ok {
		t.Fatal("nil probe clock should be real")
	}
}

func TestProbeBurnAdvancesClockAndAccounts(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	rec := NewRecorder(clk, 3*time.Second)
	p := NewProbe(rec)
	p.Burn(2 * time.Second)
	if got := rec.Total(CPU); math.Abs(got-float64(2*time.Second)) > float64(time.Millisecond) {
		t.Fatalf("cpu total %v, want 2s worth", time.Duration(got))
	}
}

func TestProbeBurnForUsesRate(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	rec := NewRecorder(clk, 3*time.Second)
	p := NewProbe(rec)
	p.BurnFor(1<<20, 1<<20) // 1 MiB at 1 MiB/s = 1s of CPU
	if got := time.Duration(rec.Total(CPU)); got != time.Second {
		t.Fatalf("cpu total %v, want 1s", got)
	}
}

func TestProbeDiskPacing(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	rec := NewRecorder(clk, 3*time.Second)
	p := NewProbe(rec)
	p.DiskWriteBps = 1 << 20
	start := clk.Now()
	p.DiskWrite(1 << 20) // takes 1 virtual second
	if elapsed := clk.Now().Sub(start); elapsed != time.Second {
		t.Fatalf("paced disk write took %v virtual, want 1s", elapsed)
	}
	if rec.Total(DiskWrite) != float64(1<<20) {
		t.Fatalf("disk bytes = %v", rec.Total(DiskWrite))
	}
}

func TestProbeDiskUnpacedInstant(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := NewRecorder(clk, 3*time.Second)
	p := NewProbe(rec)
	done := make(chan struct{})
	go func() {
		p.DiskRead(1 << 30) // no rate set: instantaneous
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unpaced disk read blocked")
	}
	if rec.Total(DiskRead) != float64(1<<30) {
		t.Fatal("bytes not accounted")
	}
}

func TestDefaultCostSane(t *testing.T) {
	c := DefaultCost()
	if c.CompressBps <= 0 || c.DecompressBps <= c.CompressBps {
		t.Fatalf("decompress should be faster than compress: %+v", c)
	}
	if c.ServiceBuild <= 0 || c.JobSubmit <= 0 || c.Auth <= 0 || c.RequestHandling <= 0 {
		t.Fatalf("non-positive cost: %+v", c)
	}
}

// TestResetRacesAccount: a server goroutine still accounting the bytes of
// a reply while the experiment that read it resets the recorder. Run
// under -race: Account used to read the epoch outside the lock.
func TestResetRacesAccount(t *testing.T) {
	clk, rec := newTestRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			rec.Account(NetOut, clk.Now(), 1)
		}
	}()
	for i := 0; i < 1000; i++ {
		rec.Reset()
	}
	<-done
}
