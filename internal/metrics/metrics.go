// Package metrics implements the resource accounting used to regenerate
// the paper's evaluation figures. The paper sampled CPU utilisation,
// network I/O and hard-disk I/O of the onServe host at 3-second intervals
// (Figures 6-8); this package provides the equivalent sampler.
//
// Network byte counts are real: they are reported by the shaped
// connections in internal/netsim as traffic actually crosses them. CPU
// and disk are accounted through an explicit cost model (package-level
// operations call Probe methods), because the host CPU a simulated run
// spends has nothing to do with the virtual time it models.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Kind identifies a resource dimension tracked by a Recorder.
type Kind int

// Resource dimensions, matching the series plotted in the paper's figures.
const (
	CPU       Kind = iota // busy time, nanoseconds
	DiskRead              // bytes
	DiskWrite             // bytes
	NetIn                 // bytes
	NetOut                // bytes
	numKinds
)

// String returns the series name used in CSV headers.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu_busy"
	case DiskRead:
		return "disk_read"
	case DiskWrite:
		return "disk_write"
	case NetIn:
		return "net_in"
	case NetOut:
		return "net_out"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Recorder accumulates resource usage into fixed-width time buckets on a
// virtual clock. It is safe for concurrent use.
type Recorder struct {
	clock    vtime.Clock
	interval time.Duration
	epoch    time.Time

	mu      sync.Mutex
	buckets map[int64]*bucket
}

type bucket struct {
	vals [numKinds]float64
}

// NewRecorder returns a Recorder bucketing at the given interval (the
// paper uses 3 seconds). The epoch is the clock's time at construction, so
// bucket 0 starts when the experiment starts.
func NewRecorder(clock vtime.Clock, interval time.Duration) *Recorder {
	if interval <= 0 {
		panic("metrics: non-positive interval")
	}
	return &Recorder{
		clock:    clock,
		interval: interval,
		epoch:    clock.Now(),
		buckets:  make(map[int64]*bucket),
	}
}

// Interval reports the bucket width.
func (r *Recorder) Interval() time.Duration { return r.interval }

// Reset clears all buckets and moves the epoch to the clock's current
// time. Experiments call it after setup so the exported series starts at
// the moment the measured phase begins.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.buckets = make(map[int64]*bucket)
	r.epoch = r.clock.Now()
	r.mu.Unlock()
}

// Clock returns the recorder's clock, shared with components that need to
// timestamp or pace work consistently with the sampler.
func (r *Recorder) Clock() vtime.Clock { return r.clock }

// Account adds amount of kind at instant at.
func (r *Recorder) Account(k Kind, at time.Time, amount float64) {
	if amount == 0 {
		return
	}
	r.mu.Lock()
	r.get(r.index(at)).vals[k] += amount // index reads the epoch Reset moves
	r.mu.Unlock()
}

// AccountSpan spreads amount of kind uniformly over [start, start+dur),
// splitting across bucket boundaries. A zero dur degenerates to Account.
func (r *Recorder) AccountSpan(k Kind, start time.Time, dur time.Duration, amount float64) {
	if amount == 0 {
		return
	}
	if dur <= 0 {
		r.Account(k, start, amount)
		return
	}
	end := start.Add(dur)
	perNano := amount / float64(dur)
	r.mu.Lock()
	defer r.mu.Unlock()
	for cur := start; cur.Before(end); {
		idx := r.index(cur)
		bEnd := r.epoch.Add(time.Duration(idx+1) * r.interval)
		segEnd := bEnd
		if end.Before(bEnd) {
			segEnd = end
		}
		r.get(idx).vals[k] += perNano * float64(segEnd.Sub(cur))
		cur = segEnd
	}
}

func (r *Recorder) index(at time.Time) int64 {
	d := at.Sub(r.epoch)
	if d < 0 {
		return 0
	}
	return int64(d / r.interval)
}

// get returns the bucket for idx, creating it. Caller holds r.mu.
func (r *Recorder) get(idx int64) *bucket {
	b := r.buckets[idx]
	if b == nil {
		b = &bucket{}
		r.buckets[idx] = b
	}
	return b
}

// Sample is one bucket of the exported time series.
type Sample struct {
	// Start is the offset of the bucket from the experiment epoch.
	Start time.Duration
	// CPUPct is CPU utilisation in percent of one core over the bucket.
	CPUPct float64
	// DiskReadBytes and DiskWriteBytes are bytes moved during the bucket.
	DiskReadBytes  float64
	DiskWriteBytes float64
	// NetInBytes and NetOutBytes are bytes received/sent during the bucket.
	NetInBytes  float64
	NetOutBytes float64
}

// Series returns all buckets from the epoch through the last non-empty
// bucket, densely (empty buckets included so plots show idle gaps).
func (r *Recorder) Series() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buckets) == 0 {
		return nil
	}
	var maxIdx int64
	keys := make([]int64, 0, len(r.buckets))
	for k := range r.buckets {
		keys = append(keys, k)
		if k > maxIdx {
			maxIdx = k
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Sample, maxIdx+1)
	for i := int64(0); i <= maxIdx; i++ {
		s := Sample{Start: time.Duration(i) * r.interval}
		if b := r.buckets[i]; b != nil {
			s.CPUPct = 100 * b.vals[CPU] / float64(r.interval)
			s.DiskReadBytes = b.vals[DiskRead]
			s.DiskWriteBytes = b.vals[DiskWrite]
			s.NetInBytes = b.vals[NetIn]
			s.NetOutBytes = b.vals[NetOut]
		}
		out[i] = s
	}
	return out
}

// Total sums every bucket of kind k.
func (r *Recorder) Total(k Kind) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t float64
	for _, b := range r.buckets {
		t += b.vals[k]
	}
	return t
}

// CSV renders the series in the column layout used by EXPERIMENTS.md.
func CSV(series []Sample) string {
	var sb strings.Builder
	sb.WriteString("t_sec,cpu_pct,disk_read_b,disk_write_b,net_in_b,net_out_b\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "%.0f,%.1f,%.0f,%.0f,%.0f,%.0f\n",
			s.Start.Seconds(), s.CPUPct, s.DiskReadBytes, s.DiskWriteBytes, s.NetInBytes, s.NetOutBytes)
	}
	return sb.String()
}

// Chart renders one series as a fixed-height ASCII chart, the terminal
// stand-in for the paper's figures.
func Chart(title, unit string, series []Sample, pick func(Sample) float64) string {
	const height = 8
	var maxV float64
	vals := make([]float64, len(series))
	for i, s := range series {
		vals[i] = pick(s)
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (peak %.4g %s, %d buckets of %gs)\n", title, maxV, unit,
		len(series), bucketSeconds(series))
	if maxV == 0 {
		sb.WriteString("  (flat zero)\n")
		return sb.String()
	}
	for row := height; row >= 1; row-- {
		thresh := maxV * (float64(row) - 0.5) / height
		sb.WriteString("  |")
		for _, v := range vals {
			if v >= thresh {
				sb.WriteByte('#')
			} else if v > 0 && row == 1 {
				sb.WriteByte('.')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("  +")
	sb.WriteString(strings.Repeat("-", len(vals)))
	sb.WriteString("> t\n")
	return sb.String()
}

func bucketSeconds(series []Sample) float64 {
	if len(series) < 2 {
		return math.NaN()
	}
	return (series[1].Start - series[0].Start).Seconds()
}
