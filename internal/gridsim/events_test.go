package gridsim

import (
	"testing"
	"time"

	"repro/internal/jsdl"
	"repro/internal/trace"
)

func busEvent(owner, job string) JobEvent {
	return JobEvent{Type: EventState, JobID: job, Owner: owner, State: "RUNNING"}
}

func TestEventBusReplayAndLive(t *testing.T) {
	b := NewEventBus()
	b.publish(busEvent("alice", "j1"))
	b.publish(busEvent("alice", "j2"))
	sub, replay, resync := b.Subscribe("alice", "", 0)
	defer b.Unsubscribe(sub)
	if resync {
		t.Fatal("fresh cursor demanded resync")
	}
	if len(replay) != 2 || replay[0].JobID != "j1" || replay[1].JobID != "j2" {
		t.Fatalf("replay %+v", replay)
	}
	if replay[0].Seq == 0 || replay[1].Seq <= replay[0].Seq {
		t.Fatalf("seq not monotonic: %d %d", replay[0].Seq, replay[1].Seq)
	}
	b.publish(busEvent("alice", "j3"))
	select {
	case ev := <-sub.C:
		if ev.JobID != "j3" || ev.Seq <= replay[1].Seq {
			t.Fatalf("live event %+v", ev)
		}
	default:
		t.Fatal("live event not delivered")
	}
}

func TestEventBusCursorSkipsReplayed(t *testing.T) {
	b := NewEventBus()
	b.publish(busEvent("alice", "j1"))
	b.publish(busEvent("alice", "j2"))
	b.publish(busEvent("alice", "j3"))
	_, replay, resync := b.Subscribe("alice", "", 2)
	if resync {
		t.Fatal("in-window cursor demanded resync")
	}
	if len(replay) != 1 || replay[0].JobID != "j3" {
		t.Fatalf("replay after cursor 2: %+v", replay)
	}
}

func TestEventBusEvictionForcesResync(t *testing.T) {
	b := NewEventBus()
	for i := 0; i < EventRingSize+8; i++ {
		b.publish(busEvent("alice", "j"))
	}
	// Cursor 1 predates the ring: its events were evicted.
	_, replay, resync := b.Subscribe("alice", "", 1)
	if !resync {
		t.Fatal("evicted cursor did not demand resync")
	}
	if len(replay) != EventRingSize {
		t.Fatalf("replay %d events, ring holds %d", len(replay), EventRingSize)
	}
	// A cursor strictly below the newest evicted seq has a gap; one at
	// exactly the newest evicted seq saw everything that was dropped.
	_, _, resync = b.Subscribe("alice", "", uint64(7))
	if !resync {
		t.Fatal("cursor below evicted seq did not demand resync")
	}
	_, _, resync = b.Subscribe("alice", "", uint64(8))
	if resync {
		t.Fatal("edge cursor (== newest evicted) demanded resync")
	}
	_, replay, resync = b.Subscribe("alice", "", uint64(EventRingSize+7))
	if resync || len(replay) != 1 {
		t.Fatalf("tail cursor: resync=%v replay=%d", resync, len(replay))
	}
}

func TestEventBusFutureCursorForcesResync(t *testing.T) {
	b := NewEventBus()
	b.publish(busEvent("alice", "j1"))
	_, replay, resync := b.Subscribe("alice", "", 99)
	if !resync || len(replay) != 0 {
		// A cursor from another bus incarnation cannot be trusted.
		t.Fatalf("future cursor: resync=%v replay=%d", resync, len(replay))
	}
}

func TestEventBusOwnerIsolation(t *testing.T) {
	b := NewEventBus()
	b.publish(busEvent("alice", "a1"))
	bobSub, bobReplay, _ := b.Subscribe("bob", "", 0)
	defer b.Unsubscribe(bobSub)
	if len(bobReplay) != 0 {
		t.Fatalf("bob replayed alice's events: %+v", bobReplay)
	}
	b.publish(busEvent("alice", "a2"))
	select {
	case ev := <-bobSub.C:
		t.Fatalf("bob received alice's event %+v", ev)
	default:
	}
	b.publish(busEvent("bob", "b1"))
	select {
	case ev := <-bobSub.C:
		if ev.JobID != "b1" {
			t.Fatalf("event %+v", ev)
		}
	default:
		t.Fatal("bob's own event not delivered")
	}
}

// TestEventBusSubmitterIsolation: two feeds of one owner share the
// owner's ring and nothing else — neither replay nor live fan-out crosses
// from one submitter key to the other.
func TestEventBusSubmitterIsolation(t *testing.T) {
	b := NewEventBus()
	mine := busEvent("alice", "a1")
	mine.Submitter = "proxy-1"
	b.publish(mine)
	other, otherReplay, resync := b.Subscribe("alice", "proxy-2", 0)
	defer b.Unsubscribe(other)
	if resync || len(otherReplay) != 0 {
		t.Fatalf("proxy-2 replayed proxy-1's events: resync=%v %+v", resync, otherReplay)
	}
	own, ownReplay, _ := b.Subscribe("alice", "proxy-1", 0)
	defer b.Unsubscribe(own)
	if len(ownReplay) != 1 || ownReplay[0].JobID != "a1" {
		t.Fatalf("proxy-1 replay %+v", ownReplay)
	}
	mine.JobID = "a2"
	b.publish(mine)
	select {
	case ev := <-other.C:
		t.Fatalf("proxy-2 received proxy-1's event %+v", ev)
	default:
	}
	select {
	case ev := <-own.C:
		if ev.JobID != "a2" || ev.Submitter != "proxy-1" {
			t.Fatalf("event %+v", ev)
		}
	default:
		t.Fatal("proxy-1's own event not delivered")
	}
	select {
	case <-other.Overflow:
		t.Fatal("a foreign feed's event flagged proxy-2 for resync")
	default:
	}
}

// TestSubmitterRecordedBeforeDispatch: on an idle site the submission
// itself dispatches the job, so its RUNNING event is published before
// SubmitTraced returns — and must already carry the submitter key.
func TestSubmitterRecordedBeforeDispatch(t *testing.T) {
	clk := autoClock(t)
	g, err := New(clk, SiteConfig{Name: "siteA", Nodes: 1, CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	site, _ := g.Site("siteA")
	if err := site.Store().Put(owner, "hi.gsh", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	keyed, _, _ := g.Events().Subscribe(owner, "proxy-1", 0)
	defer g.Events().Unsubscribe(keyed)
	unkeyed, _, _ := g.Events().Subscribe(owner, "", 0)
	defer g.Events().Unsubscribe(unkeyed)
	j, err := g.SubmitTraced(jsdl.Description{Owner: owner, Executable: "hi.gsh"}, "proxy-1", trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Submitter != "proxy-1" {
		t.Fatalf("job submitter %q", j.Submitter)
	}
	waitJob(t, j)
	deadline := time.After(5 * time.Second)
	for states := 0; states < 2; {
		select {
		case ev := <-keyed.C:
			if ev.JobID != j.ID || ev.Submitter != "proxy-1" {
				t.Fatalf("event %+v", ev)
			}
			if ev.Type == EventState {
				states++ // RUNNING, then DONE
			}
		case <-deadline:
			t.Fatalf("keyed feed saw %d state events", states)
		}
	}
	select {
	case ev := <-unkeyed.C:
		t.Fatalf("keyless feed received a keyed job's event %+v", ev)
	default:
	}
}

func TestStdoutWithin(t *testing.T) {
	j := newJob("s:job-1", jsdl.Description{}, "s", time.Time{}, 0)
	j.writeStdout([]byte("12345"))
	if out, ver, ok := j.StdoutWithin(5); !ok || out != "12345" || ver != 1 {
		t.Fatalf("within limit: %q v%d ok=%v", out, ver, ok)
	}
	if out, _, ok := j.StdoutWithin(4); ok || out != "" {
		t.Fatalf("over limit: %q ok=%v", out, ok)
	}
}

func TestEventBusOverflowNeverBlocksPublisher(t *testing.T) {
	b := NewEventBus()
	sub, _, _ := b.Subscribe("alice", "", 0)
	defer b.Unsubscribe(sub)
	// Publish past the subscriber buffer without draining: the publisher
	// must not block, and the subscriber must learn its view has a gap.
	done := make(chan struct{})
	go func() {
		for i := 0; i < subBuffer+16; i++ {
			b.publish(busEvent("alice", "j"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}
	select {
	case <-sub.Overflow:
	default:
		t.Fatal("overflow not signalled")
	}
}

func TestEventBusNilSafe(t *testing.T) {
	var b *EventBus
	b.publish(busEvent("alice", "j1")) // must not panic
	b.Unsubscribe(nil)
	NewEventBus().Unsubscribe(nil)
}

// TestGridPublishesJobLifecycle drives a real job through the scheduler
// and checks the bus carries its whole story: a RUNNING transition,
// output bumps with advancing versions, and exactly one terminal state
// whose output version matches the job's final stdout version.
func TestGridPublishesJobLifecycle(t *testing.T) {
	clk := autoClock(t)
	g, err := New(clk, SiteConfig{Name: "siteA", Nodes: 1, CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	site, _ := g.Site("siteA")
	if err := site.Store().Put(owner, "talk.gsh", []byte("echo one\ncompute 500ms\necho two\n")); err != nil {
		t.Fatal(err)
	}
	sub, _, _ := g.Events().Subscribe(owner, "", 0)
	defer g.Events().Unsubscribe(sub)
	j, err := g.Submit(jsdl.Description{Owner: owner, Executable: "talk.gsh"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	var sawRunning, sawTerminal bool
	var outputs int
	var lastVer, terminalVer uint64
	deadline := time.After(5 * time.Second)
	for !sawTerminal {
		select {
		case ev := <-sub.C:
			if ev.JobID != j.ID || ev.Site != "siteA" {
				t.Fatalf("event %+v", ev)
			}
			switch ev.Type {
			case EventState:
				switch ev.State {
				case Running.String():
					sawRunning = true
				case Succeeded.String():
					sawTerminal = true
					terminalVer = ev.OutputVersion
				default:
					t.Fatalf("unexpected state event %+v", ev)
				}
			case EventOutput:
				if ev.OutputVersion <= lastVer {
					t.Fatalf("output version did not advance: %d -> %d", lastVer, ev.OutputVersion)
				}
				lastVer = ev.OutputVersion
				outputs++
			}
		case <-deadline:
			t.Fatalf("terminal event never arrived (running=%v outputs=%d)", sawRunning, outputs)
		}
	}
	if !sawRunning || outputs < 2 {
		t.Fatalf("lifecycle incomplete: running=%v outputs=%d", sawRunning, outputs)
	}
	if terminalVer != j.StdoutVersion() {
		t.Fatalf("terminal event carries version %d, job at %d", terminalVer, j.StdoutVersion())
	}
}

// TestCancelPublishesTerminalEvent covers both cancel paths: a queued
// job (cancelled synchronously by the scheduler) and a running job
// (cancelled by interrupting execution) each publish exactly one
// terminal state event.
func TestCancelPublishesTerminalEvent(t *testing.T) {
	clk := autoClock(t)
	g, err := New(clk, SiteConfig{Name: "siteA", Nodes: 1, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	site, _ := g.Site("siteA")
	if err := site.Store().Put(owner, "slow.gsh", []byte("emit 500ms 100 tick\n")); err != nil {
		t.Fatal(err)
	}
	sub, _, _ := g.Events().Subscribe(owner, "", 0)
	defer g.Events().Unsubscribe(sub)
	// One slot: the first job runs, the second queues behind it.
	running, err := g.Submit(jsdl.Description{Owner: owner, Executable: "slow.gsh"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := g.Submit(jsdl.Description{Owner: owner, Executable: "slow.gsh"})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := site.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, running)
	waitJob(t, queued)

	cancelled := map[string]int{}
	deadline := time.After(5 * time.Second)
	for cancelled[running.ID] == 0 || cancelled[queued.ID] == 0 {
		select {
		case ev := <-sub.C:
			if ev.Type == EventState && ev.State == Cancelled.String() {
				cancelled[ev.JobID]++
			}
		case <-deadline:
			t.Fatalf("cancel events missing: %v", cancelled)
		}
	}
	// No duplicate terminal publication.
	drain := time.After(50 * time.Millisecond)
	for {
		select {
		case ev := <-sub.C:
			if ev.Type == EventState && ev.State == Cancelled.String() {
				cancelled[ev.JobID]++
			}
		case <-drain:
			for id, n := range cancelled {
				if n != 1 {
					t.Fatalf("job %s published %d terminal events", id, n)
				}
			}
			return
		}
	}
}
