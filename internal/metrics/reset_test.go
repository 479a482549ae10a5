package metrics

import (
	"testing"
	"time"

	"repro/internal/vtime"
)

func TestRecorderReset(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := NewRecorder(clk, 3*time.Second)
	rec.Account(NetIn, clk.Now(), 100)
	clk.Advance(10 * time.Second)
	rec.Reset()
	if s := rec.Series(); s != nil {
		t.Fatalf("series after reset: %v", s)
	}
	// Post-reset accounting lands in bucket 0 relative to the new epoch.
	rec.Account(NetIn, clk.Now(), 50)
	s := rec.Series()
	if len(s) != 1 || s[0].NetInBytes != 50 || s[0].Start != 0 {
		t.Fatalf("post-reset series %+v", s)
	}
	if rec.Total(NetIn) != 50 {
		t.Fatalf("total %v", rec.Total(NetIn))
	}
}

func TestProbeClockPassthrough(t *testing.T) {
	clk := vtime.NewManual(time.Unix(42, 0))
	rec := NewRecorder(clk, time.Second)
	p := NewProbe(rec)
	// Accounting is stamped by the recorder's clock.
	clk.Advance(5 * time.Second)
	p.DiskWrite(10)
	if s := rec.Series(); len(s) != 6 || s[5].DiskWriteBytes != 10 {
		t.Fatalf("a write 5 s past the epoch: series %+v", s)
	}
	if p.Recorder() != rec {
		t.Fatal("probe recorder lost")
	}
}
