package metrics

import (
	"testing"
	"time"

	"repro/internal/bubble"
)

func TestRecorderReset(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := NewRecorder(3 * time.Second)
		rec.Account(NetIn, time.Now(), 100)
		time.Sleep(10 * time.Second)
		rec.Reset()
		if s := rec.Series(); s != nil {
			t.Fatalf("series after reset: %v", s)
		}
		// Post-reset accounting lands in bucket 0 relative to the new epoch.
		rec.Account(NetIn, time.Now(), 50)
		s := rec.Series()
		if len(s) != 1 || s[0].NetInBytes != 50 || s[0].Start != 0 {
			t.Fatalf("post-reset series %+v", s)
		}
		if rec.Total(NetIn) != 50 {
			t.Fatalf("total %v", rec.Total(NetIn))
		}
	})
}

func TestProbeClockPassthrough(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := NewRecorder(time.Second)
		p := NewProbe(rec, Cost{})
		// Accounting is stamped with the time of the call.
		time.Sleep(5 * time.Second)
		p.DiskWrite(10)
		if s := rec.Series(); len(s) != 6 || s[5].DiskWriteBytes != 10 {
			t.Fatalf("a write 5 s past the epoch: series %+v", s)
		}
	})
}
