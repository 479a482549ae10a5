package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bubble"
)

// newTestRecorder returns a recorder of 3-s buckets and its epoch: call
// it in a bubble, where the clock moves only while everything sleeps.
func newTestRecorder() (*Recorder, time.Time) {
	return NewRecorder(3 * time.Second), time.Now()
}

// TestMain runs the tests that sleep on virtual time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestAccountGoesToCorrectBucket(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec, _ := newTestRecorder()
		rec.Account(NetIn, time.Now(), 100)
		time.Sleep(7 * time.Second) // bucket 2
		rec.Account(NetIn, time.Now(), 50)
		s := rec.Series()
		if len(s) != 3 {
			t.Fatalf("got %d buckets, want 3", len(s))
		}
		if s[0].NetInBytes != 100 || s[1].NetInBytes != 0 || s[2].NetInBytes != 50 {
			t.Fatalf("unexpected series %+v", s)
		}
	})
}

func TestAccountSpanSplitsAcrossBuckets(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec, t0 := newTestRecorder()
		// 6 seconds of span starting at t=0 covers buckets 0 and 1 evenly.
		rec.AccountSpan(DiskWrite, t0, 6*time.Second, 600)
		s := rec.Series()
		if len(s) != 2 {
			t.Fatalf("got %d buckets, want 2", len(s))
		}
		if math.Abs(s[0].DiskWriteBytes-300) > 1e-6 || math.Abs(s[1].DiskWriteBytes-300) > 1e-6 {
			t.Fatalf("uneven split: %+v", s)
		}
	})
}

func TestAccountSpanPartialBucket(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec, t0 := newTestRecorder()
		// Span [2s, 5s): 1s in bucket 0, 2s in bucket 1.
		rec.AccountSpan(NetOut, t0.Add(2*time.Second), 3*time.Second, 900)
		s := rec.Series()
		if math.Abs(s[0].NetOutBytes-300) > 1e-6 || math.Abs(s[1].NetOutBytes-600) > 1e-6 {
			t.Fatalf("wrong partial split: %+v", s)
		}
	})
}

func TestCPUPercent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec, t0 := newTestRecorder()
		// 1.5s of CPU busy in a 3s bucket = 50%.
		rec.AccountSpan(CPU, t0, 1500*time.Millisecond, float64(1500*time.Millisecond))
		s := rec.Series()
		if math.Abs(s[0].CPUPct-50) > 1e-6 {
			t.Fatalf("cpu pct = %v, want 50", s[0].CPUPct)
		}
	})
}

func TestTotalConservation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := func(spans []struct {
			StartSec uint16
			DurMs    uint16
			Amount   uint32
		}) bool {
			rec, t0 := newTestRecorder()
			var want float64
			for _, sp := range spans {
				amt := float64(sp.Amount % 1_000_000)
				rec.AccountSpan(NetIn, t0.Add(time.Duration(sp.StartSec%3600)*time.Second),
					time.Duration(sp.DurMs)*time.Millisecond, amt)
				want += amt
			}
			got := rec.Total(NetIn)
			return math.Abs(got-want) < 1e-3*math.Max(1, want)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSeriesDense(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec, _ := newTestRecorder()
		time.Sleep(30 * time.Second)
		rec.Account(NetIn, time.Now(), 1)
		s := rec.Series()
		if len(s) != 11 {
			t.Fatalf("series length %d, want 11 (buckets 0..10)", len(s))
		}
		for i := 0; i < 10; i++ {
			if s[i].NetInBytes != 0 {
				t.Fatalf("bucket %d not empty", i)
			}
		}
	})
}

func TestSeriesEmpty(t *testing.T) {
	rec, _ := newTestRecorder()
	if s := rec.Series(); s != nil {
		t.Fatalf("expected nil series, got %v", s)
	}
}

func TestNegativeTimeClampsToBucketZero(t *testing.T) {
	rec, _ := newTestRecorder()
	rec.Account(NetIn, time.Unix(-100, 0), 42)
	s := rec.Series()
	if len(s) != 1 || s[0].NetInBytes != 42 {
		t.Fatalf("pre-epoch accounting not clamped: %+v", s)
	}
}

func TestCSVHeaderAndRows(t *testing.T) {
	rec, t0 := newTestRecorder()
	rec.Account(NetIn, t0, 10)
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
	rec, t0 := newTestRecorder()
	rec.Account(NetIn, t0, 100)
	rec.Account(NetIn, t0.Add(9*time.Second), 10)
	chart := Chart("net in", "B", rec.Series(), func(s Sample) float64 { return s.NetInBytes })
	if !strings.Contains(chart, "#") {
		t.Fatalf("chart has no marks:\n%s", chart)
	}
	if !strings.Contains(chart, "peak 100 B") {
		t.Fatalf("chart missing peak annotation:\n%s", chart)
	}
}

func TestChartFlatZero(t *testing.T) {
	rec, t0 := newTestRecorder()
	rec.Account(CPU, t0, 0.0)                    // nothing recorded
	rec.Account(NetIn, t0.Add(3*time.Second), 5) // force non-empty series
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
	NewRecorder(0)
}

func TestNilProbeSafe(t *testing.T) {
	var p *Probe
	p.DiskRead(10)
	p.DiskWrite(10)
	p.NetIn(time.Now(), 5)
	p.NetOut(time.Now(), 5)
}

func TestProbeBurnAdvancesClockAndAccounts(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := NewRecorder(3 * time.Second)
		p := NewProbe(rec, Cost{})
		p.burn(2 * time.Second)
		if got := rec.Total(CPU); math.Abs(got-float64(2*time.Second)) > float64(time.Millisecond) {
			t.Fatalf("cpu total %v, want 2s worth", time.Duration(got))
		}
	})
}

func TestProbeBurnForUsesRate(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := NewRecorder(3 * time.Second)
		p := NewProbe(rec, Cost{})
		p.burnFor(1<<20, 1<<20) // 1 MiB at 1 MiB/s = 1s of CPU
		if got := time.Duration(rec.Total(CPU)); got != time.Second {
			t.Fatalf("cpu total %v, want 1s", got)
		}
	})
}

// TestProbeCharges: every charge a component names on a probe accounts
// what the cost model prices it at, in one accounting, over exactly that
// much virtual time; a zero model charges no CPU; and a nil probe — what
// the real-clock benchmark runs — accounts nothing and allocates nothing.
func TestProbeCharges(t *testing.T) {
	const n = 1234567 // bytes: not a multiple of any rate
	c := DefaultCost()
	atRate := func(bps float64) time.Duration { return time.Duration(float64(n) / bps * float64(time.Second)) }
	for _, tc := range []struct {
		name   string
		charge func(*Probe)
		kind   Kind
		amount float64       // accounted
		took   time.Duration // virtual time the charge blocks
		model  bool          // priced by the cost model: a zero Cost charges nothing
	}{
		{"Compress", func(p *Probe) { p.Compress(n) }, CPU, float64(atRate(c.CompressBps)), atRate(c.CompressBps), true},
		{"Decompress", func(p *Probe) { p.Decompress(n) }, CPU, float64(atRate(c.DecompressBps)), atRate(c.DecompressBps), true},
		{"Receive", func(p *Probe) { p.Receive(n) }, CPU, float64(atRate(c.ReceiveBps)), atRate(c.ReceiveBps), true},
		{"ServiceBuild", (*Probe).ServiceBuild, CPU, float64(c.ServiceBuild), c.ServiceBuild, true},
		{"JobSubmit", (*Probe).JobSubmit, CPU, float64(c.JobSubmit), c.JobSubmit, true},
		{"Auth", (*Probe).Auth, CPU, float64(c.Auth), c.Auth, true},
		{"Request", (*Probe).Request, CPU, float64(c.RequestHandling), c.RequestHandling, true},
		{"DiskRead", func(p *Probe) { p.DiskRead(n) }, DiskRead, n, 0, false},
		{"DiskWrite", func(p *Probe) { p.DiskWrite(n) }, DiskWrite, n, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bubble.Test(t, func(t *testing.T) {
				for _, cost := range []Cost{c, {}} {
					rec := NewRecorder(3 * time.Second)
					var log []string
					rec.Observe = func(k Kind, amount float64) { log = append(log, fmt.Sprintf("%s %v", k, amount)) }
					amount, took := tc.amount, tc.took
					if cost == (Cost{}) && tc.model {
						amount, took = 0, 0
					}
					start := time.Now()
					tc.charge(NewProbe(rec, cost))
					if got := time.Since(start); got != took {
						t.Errorf("cost %+v: took %v virtual, want %v", cost, got, took)
					}
					var want []string
					if amount != 0 {
						want = []string{fmt.Sprintf("%s %v", tc.kind, amount)}
					}
					if !slices.Equal(log, want) {
						t.Errorf("cost %+v: accounted %q, want %q", cost, log, want)
					}
				}
			})
			if allocs := testing.AllocsPerRun(100, func() { tc.charge(nil) }); allocs != 0 {
				t.Errorf("a nil probe's charge allocates %v objects, want 0", allocs)
			}
		})
	}
}

func TestProbeDiskUnpacedInstant(t *testing.T) {
	// An account that waited on the clock would leave the bubble deadlocked.
	bubble.Test(t, func(t *testing.T) {
		rec := NewRecorder(3 * time.Second)
		p := NewProbe(rec, DefaultCost())
		done := make(chan struct{})
		go func() {
			p.DiskRead(1 << 30) // disk time is not modelled: instantaneous
			close(done)
		}()
		<-done
		if rec.Total(DiskRead) != float64(1<<30) {
			t.Fatal("bytes not accounted")
		}
	})
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
	bubble.Test(t, func(t *testing.T) {
		rec, _ := newTestRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 1000; i++ {
				rec.Account(NetOut, time.Now(), 1)
			}
		}()
		for i := 0; i < 1000; i++ {
			rec.Reset()
		}
		<-done
	})
}
