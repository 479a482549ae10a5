package gridsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gsh"
	"repro/internal/jsdl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Site errors.
var (
	ErrNotStaged   = errors.New("gridsim: executable not staged at site")
	ErrTooManyCPUs = errors.New("gridsim: job requests more CPUs than the site has")
	ErrNoSuchJob   = errors.New("gridsim: no such job")
	ErrDraining    = errors.New("gridsim: site is draining")
)

// Policy selects a site's batch scheduling discipline.
type Policy int

// Scheduling policies.
const (
	// PolicyAggressive starts any queued job that fits the free slots
	// (EASY-style backfill without reservations). This is the default and
	// what most 2010-era TeraGrid sites effectively ran for serial mixes.
	PolicyAggressive Policy = iota
	// PolicyFCFS starts jobs strictly in submission order: the queue
	// head blocks everything behind it until it fits.
	PolicyFCFS
	// PolicyConservative gives the queue head a reservation computed
	// from running jobs' walltime limits; later jobs backfill only if
	// they cannot delay that reservation.
	PolicyConservative
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyAggressive:
		return "aggressive"
	case PolicyFCFS:
		return "fcfs"
	case PolicyConservative:
		return "conservative"
	}
	return "unknown"
}

// SiteConfig describes one supercomputing centre.
type SiteConfig struct {
	// Name identifies the site ("ncsa-abe", ...).
	Name string
	// Policy selects the batch scheduling discipline (default
	// PolicyAggressive).
	Policy Policy
	// Nodes and CoresPerNode define capacity; slots = Nodes*CoresPerNode.
	Nodes        int
	CoresPerNode int
	// CPUFactor scales compute statement durations: 2.0 runs compute
	// twice as fast as nominal. Zero means 1.0.
	CPUFactor float64
	// DefaultWallTime applies when a job requests none. Zero = 12h.
	DefaultWallTime time.Duration
	// MaxJobOutput bounds one job's total output artifacts; zero means
	// the package default MaxJobOutputBytes.
	MaxJobOutput int
}

func (c *SiteConfig) slots() int { return c.Nodes * c.CoresPerNode }

// SiteStats is a snapshot of a site's accounting.
type SiteStats struct {
	Name       string
	Slots      int
	FreeSlots  int
	Queued     int
	Running    int
	Completed  int
	Failed     int
	CPUSeconds float64
}

// Site models one centre: a slot pool, an FCFS queue with aggressive
// backfill, a staging store, and a gsh execution engine.
type Site struct {
	cfg    SiteConfig
	clock  vtime.Clock
	store  *Store
	tracer *trace.Tracer
	// bus receives job transition/output events (nil for a standalone
	// site; Grid.New wires the grid-wide bus in).
	bus *EventBus

	mu        sync.Mutex
	freeSlots int
	queue     []*Job
	jobs      map[string]*Job
	running   map[string]runInfo
	seq       int
	draining  bool
	completed int
	failed    int
	cpuSec    float64
	usage     map[string]*OwnerUsage // by owner identity
}

// OwnerUsage is one identity's consumption at a site — the accounting
// production grids bill allocations against.
type OwnerUsage struct {
	Owner      string  `json:"owner"`
	Jobs       int     `json:"jobs"`
	CPUSeconds float64 `json:"cpu_seconds"`
}

// runInfo tracks a dispatched job's slot claim and its walltime deadline,
// the inputs to conservative-backfill reservations.
type runInfo struct {
	cpus     int
	deadline time.Time
}

// NewSite builds a site from cfg.
func NewSite(cfg SiteConfig, clock vtime.Clock) *Site {
	if cfg.CPUFactor <= 0 {
		cfg.CPUFactor = 1
	}
	if cfg.DefaultWallTime <= 0 {
		cfg.DefaultWallTime = 12 * time.Hour
	}
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Site{
		cfg:       cfg,
		clock:     clock,
		store:     NewStore(),
		freeSlots: cfg.slots(),
		jobs:      make(map[string]*Job),
		running:   make(map[string]runInfo),
		usage:     make(map[string]*OwnerUsage),
	}
}

// Policy reports the scheduling discipline.
func (s *Site) Policy() Policy { return s.cfg.Policy }

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Store returns the site's staging area.
func (s *Site) Store() *Store { return s.store }

// SetTracer enables job-lifecycle spans for traced submissions. Call
// before submitting; a nil tracer keeps tracing off.
func (s *Site) SetTracer(t *trace.Tracer) { s.tracer = t }

// publishState emits a lifecycle-transition event for j; no-op without a
// bus. Called outside s.mu and j.mu.
func (s *Site) publishState(j *Job, st State, msg string, ver uint64, at time.Time) {
	s.bus.publish(JobEvent{
		Type:          EventState,
		JobID:         j.ID,
		Owner:         j.Desc.Owner,
		Submitter:     j.Submitter,
		State:         st.String(),
		Message:       msg,
		Site:          s.cfg.Name,
		OutputVersion: ver,
		At:            at,
	})
}

// publishOutput emits a stdout-version bump for j; no-op without a bus.
func (s *Site) publishOutput(j *Job, ver uint64) {
	s.bus.publish(JobEvent{
		Type:          EventOutput,
		JobID:         j.ID,
		Owner:         j.Desc.Owner,
		Submitter:     j.Submitter,
		Site:          s.cfg.Name,
		OutputVersion: ver,
		At:            s.clock.Now(),
	})
}

// Slots returns total capacity.
func (s *Site) Slots() int { return s.cfg.slots() }

// Submit validates and enqueues a job. The executable must already be
// staged for the owner (the JSE contract: stage first, then submit).
func (s *Site) Submit(desc jsdl.Description) (*Job, error) {
	return s.SubmitTraced(desc, "", trace.SpanContext{})
}

// SubmitTraced is Submit on behalf of a remote submitter: submitter
// becomes the job's Submitter key, and when tc is valid (and the site has
// a tracer) the job records "job.queue" and "job.run" spans under it at
// exact scheduler timestamps.
func (s *Site) SubmitTraced(desc jsdl.Description, submitter string, tc trace.SpanContext) (*Job, error) {
	desc.Normalize()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if desc.CPUs > s.cfg.slots() {
		return nil, fmt.Errorf("%w: %d > %d at %s", ErrTooManyCPUs, desc.CPUs, s.cfg.slots(), s.cfg.Name)
	}
	if _, err := s.store.Size(desc.Owner, desc.Executable); err != nil {
		return nil, fmt.Errorf("%w: %s (owner %s)", ErrNotStaged, desc.Executable, desc.Owner)
	}
	for _, f := range desc.StageIn {
		if _, err := s.store.Size(desc.Owner, f); err != nil {
			return nil, fmt.Errorf("%w: stage-in %s (owner %s)", ErrNotStaged, f, desc.Owner)
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	id := fmt.Sprintf("%s:job-%06d", s.cfg.Name, s.seq)
	now := s.clock.Now()
	job := newJob(id, desc, s.cfg.Name, now, s.cfg.MaxJobOutput)
	// Before enqueue, like the trace below: dispatchLocked may publish
	// RUNNING at once, and the event must already name its feed.
	job.Submitter = submitter
	if s.tracer != nil && tc.Valid() {
		// Before enqueue: dispatchLocked may start the job immediately and
		// markRunning must see the queue span.
		job.initTrace(s.tracer, tc, now)
	}
	s.jobs[id] = job
	s.queue = append(s.queue, job)
	s.dispatchLocked()
	s.mu.Unlock()
	return job, nil
}

// Job looks up a job by ID.
func (s *Site) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	return j, nil
}

// Cancel requests cancellation. Jobs still in the queue finish
// immediately; dispatched jobs stop at the interpreter's next statement
// boundary and their slots return through the runner.
func (s *Site) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	inQueue := false
	s.mu.Lock()
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			inQueue = true
			break
		}
	}
	s.mu.Unlock()
	if inQueue {
		endedAt := s.clock.Now()
		if j.finish(Cancelled, "cancelled by user", endedAt) {
			// Never dispatched: account it here, since no runner will.
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
			s.publishState(j, Cancelled, "cancelled by user", j.StdoutVersion(), endedAt)
		}
		return nil
	}
	// Dispatched (or already terminal, where this is a no-op): signal the
	// runner, which frees the slots before marking the job terminal.
	j.requestCancel()
	return nil
}

// Drain stops accepting new jobs (used for failure-injection tests).
func (s *Site) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Stats snapshots the site accounting.
func (s *Site) Stats() SiteStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	running := 0
	for _, j := range s.jobs {
		if j.State() == Running {
			running++
		}
	}
	return SiteStats{
		Name:       s.cfg.Name,
		Slots:      s.cfg.slots(),
		FreeSlots:  s.freeSlots,
		Queued:     len(s.queue),
		Running:    running,
		Completed:  s.completed,
		Failed:     s.failed,
		CPUSeconds: s.cpuSec,
	}
}

// ownerUsageLocked returns (creating) the owner's usage row; caller
// holds s.mu.
func (s *Site) ownerUsageLocked(owner string) *OwnerUsage {
	u := s.usage[owner]
	if u == nil {
		u = &OwnerUsage{Owner: owner}
		s.usage[owner] = u
	}
	return u
}

// Usage snapshots one owner's consumption at this site.
func (s *Site) Usage(owner string) OwnerUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u := s.usage[owner]; u != nil {
		return *u
	}
	return OwnerUsage{Owner: owner}
}

// loadFactor estimates contention for the broker: committed CPUs (queued
// + running) per slot.
func (s *Site) loadFactor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed := s.cfg.slots() - s.freeSlots
	for _, j := range s.queue {
		committed += j.Desc.CPUs
	}
	return float64(committed) / float64(s.cfg.slots())
}

// dispatchLocked starts queued jobs according to the site's policy.
// Caller holds s.mu.
func (s *Site) dispatchLocked() {
	switch s.cfg.Policy {
	case PolicyFCFS:
		s.dispatchFCFSLocked()
	case PolicyConservative:
		s.dispatchConservativeLocked()
	default:
		s.dispatchAggressiveLocked()
	}
}

// startLocked claims slots and launches the runner. The start timestamp
// is taken here, under the scheduler lock, so job start ordering matches
// dispatch ordering regardless of goroutine scheduling.
func (s *Site) startLocked(j *Job) {
	s.freeSlots -= j.Desc.CPUs
	now := s.clock.Now()
	s.running[j.ID] = runInfo{
		cpus:     j.Desc.CPUs,
		deadline: now.Add(s.wallTimeOf(j)),
	}
	go s.run(j, now)
}

func (s *Site) wallTimeOf(j *Job) time.Duration {
	if j.Desc.WallTime > 0 {
		return j.Desc.WallTime
	}
	return s.cfg.DefaultWallTime
}

// dispatchAggressiveLocked starts every queued job that fits, in
// submission order, skipping jobs too wide for the current free slots —
// EASY-style backfill without reservations.
func (s *Site) dispatchAggressiveLocked() {
	remaining := s.queue[:0]
	for _, j := range s.queue {
		if j.State().Terminal() {
			continue // cancelled while queued
		}
		if j.Desc.CPUs <= s.freeSlots {
			s.startLocked(j)
		} else {
			remaining = append(remaining, j)
		}
	}
	s.queue = remaining
}

// dispatchFCFSLocked starts jobs strictly in order; the first job that
// does not fit blocks everything behind it.
func (s *Site) dispatchFCFSLocked() {
	i := 0
	for ; i < len(s.queue); i++ {
		j := s.queue[i]
		if j.State().Terminal() {
			continue
		}
		if j.Desc.CPUs > s.freeSlots {
			break
		}
		s.startLocked(j)
	}
	// Compact: drop started/terminal prefix, keep the blocked tail.
	remaining := s.queue[:0]
	for ; i < len(s.queue); i++ {
		if !s.queue[i].State().Terminal() {
			remaining = append(remaining, s.queue[i])
		}
	}
	s.queue = remaining
}

// dispatchConservativeLocked gives the queue head a reservation derived
// from running jobs' walltime deadlines; later jobs may start only if
// they fit now and their own walltime cannot push the reservation back.
func (s *Site) dispatchConservativeLocked() {
	now := s.clock.Now()
	remaining := s.queue[:0]
	var reservation time.Time
	haveHead := false
	for _, j := range s.queue {
		if j.State().Terminal() {
			continue
		}
		switch {
		case !haveHead && j.Desc.CPUs <= s.freeSlots:
			s.startLocked(j)
		case !haveHead:
			// This is the blocked head: reserve its start.
			reservation = s.reservationLocked(j.Desc.CPUs)
			haveHead = true
			remaining = append(remaining, j)
		default:
			// Backfill candidates: must fit now and finish (by walltime
			// bound) before the head's reservation.
			if j.Desc.CPUs <= s.freeSlots && !now.Add(s.wallTimeOf(j)).After(reservation) {
				s.startLocked(j)
				// Starting a backfill job cannot delay the reservation
				// (its slots return before it), so no recompute needed.
			} else {
				remaining = append(remaining, j)
			}
		}
	}
	s.queue = remaining
}

// reservationLocked estimates the earliest instant at which cpus slots
// will be free, assuming running jobs hold their slots until their
// walltime deadlines (the conservative bound).
func (s *Site) reservationLocked(cpus int) time.Time {
	free := s.freeSlots
	now := s.clock.Now()
	if free >= cpus {
		return now
	}
	evs := make([]runInfo, 0, len(s.running))
	for _, ri := range s.running {
		evs = append(evs, ri)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].deadline.Before(evs[j].deadline) })
	for _, e := range evs {
		free += e.cpus
		if free >= cpus {
			if e.deadline.Before(now) {
				return now
			}
			return e.deadline
		}
	}
	// Unreachable for validated submissions (cpus <= site slots).
	return now.Add(s.cfg.DefaultWallTime)
}

// run executes one job, then returns its slots and records the terminal
// state. Slots are freed and the queue redispatched *before* the job is
// marked terminal, so an observer woken by Done() sees consistent site
// accounting.
func (s *Site) run(j *Job, startedAt time.Time) {
	st, msg := s.execute(j, startedAt)
	// The end timestamp is taken before the slots are redispatched, so a
	// successor's start time never precedes this job's end time.
	endedAt := s.clock.Now()
	s.mu.Lock()
	s.freeSlots += j.Desc.CPUs
	delete(s.running, j.ID)
	s.ownerUsageLocked(j.Desc.Owner).Jobs++
	if st == Succeeded {
		s.completed++
	} else {
		s.failed++
	}
	s.dispatchLocked()
	s.mu.Unlock()
	if j.finish(st, msg, endedAt) {
		s.publishState(j, st, msg, j.StdoutVersion(), endedAt)
	}
}

// execute runs the job body and reports the terminal state to record.
func (s *Site) execute(j *Job, startedAt time.Time) (State, string) {
	if !j.markRunning(startedAt) {
		return Cancelled, "cancelled before start" // finished while queued
	}
	s.publishState(j, Running, "", j.StdoutVersion(), startedAt)
	src, err := s.store.Get(j.Desc.Owner, j.Desc.Executable)
	if err != nil {
		return Failed, "stage-in vanished: " + err.Error()
	}
	prog, err := gsh.Parse(src)
	if err != nil {
		return Failed, "executable rejected: " + err.Error()
	}

	wallTime := j.Desc.WallTime
	if wallTime <= 0 {
		wallTime = s.cfg.DefaultWallTime
	}
	env := &gsh.Env{
		Args:   j.Desc.Arguments,
		Stdout: stdoutWriter{j: j, s: s},
		Clock:  s.clock,
		CPU: func(d time.Duration) {
			scaled := time.Duration(float64(d) / s.cfg.CPUFactor)
			s.clock.Sleep(scaled)
			coreSec := scaled.Seconds() * float64(j.Desc.CPUs)
			s.mu.Lock()
			s.cpuSec += coreSec
			s.ownerUsageLocked(j.Desc.Owner).CPUSeconds += coreSec
			s.mu.Unlock()
		},
		WriteFile: j.writeOutput,
		ReadFile: func(name string) ([]byte, error) {
			return s.store.Get(j.Desc.Owner, name)
		},
		Done: j.cancel,
	}

	result := make(chan error, 1)
	go func() { result <- prog.Run(env) }()

	st, msg := awaitProgram(result, s.clock.After(wallTime), j.cancel)
	if st == TimedOut {
		// The interpreter goroutine unwinds at its next statement
		// boundary; its late writes are ignored because the job will
		// already be terminal.
		j.requestCancel()
		msg = fmt.Sprintf("walltime limit %v exceeded", wallTime)
	}
	return st, msg
}

// awaitProgram blocks until the program returns, its walltime expires or
// the job is cancelled, and reports the terminal state that follows. A
// program that has returned by the time the limit is seen to expire
// finished within it: on an event clock the two can be ready at one
// instant, and a select with both ready picks at random.
func awaitProgram(result <-chan error, expired <-chan time.Time, cancel <-chan struct{}) (State, string) {
	select {
	case err := <-result:
		return programState(err)
	case <-expired:
		select {
		case err := <-result:
			return programState(err)
		default:
			return TimedOut, ""
		}
	case <-cancel:
		// Cancel of a dispatched job: release the slots immediately even
		// if the interpreter is mid-sleep.
		return Cancelled, "cancelled by user"
	}
}

// programState maps what the interpreter returned to a terminal state.
func programState(err error) (State, string) {
	switch {
	case err == nil:
		return Succeeded, ""
	case errors.Is(err, gsh.ErrCancelled):
		return Cancelled, "cancelled by user"
	default:
		return Failed, err.Error()
	}
}
