package gridsim

import (
	"sync"
	"time"
)

// Event types carried by JobEvent.Type.
const (
	// EventState marks a lifecycle transition (RUNNING or a terminal
	// state).
	EventState = "state"
	// EventOutput marks a stdout-version bump: the job appended output
	// and OutputVersion is the new version.
	EventOutput = "output"
)

// EventRingSize bounds how many recent events the bus retains per owner
// for cursor resume. A subscriber reconnecting with a cursor older than
// the owner's retained window is told to resynchronise instead of being
// replayed a gapped history.
const EventRingSize = 4096

// JobEvent is one published job transition or output bump. Seq is a
// bus-wide monotonic sequence number: subscribers use the last Seq they
// saw as a resume cursor after a dropped connection. Submitter is the
// job's Submitter key: together with Owner it names the one feed the
// event belongs to.
type JobEvent struct {
	Seq           uint64
	Type          string // EventState or EventOutput
	JobID         string
	Owner         string
	Submitter     string
	State         string // state name for EventState, "" for EventOutput
	Message       string
	Site          string
	OutputVersion uint64
	At            time.Time
}

// EventBus publishes job transitions to subscribers keyed by (owner,
// submitter) — the subscription registry between the scheduler and the
// gatekeeper's event streams. A feed carries exactly the jobs submitted
// under its own key, so two sessions of one identity never hear each
// other's jobs; the replay history stays one bounded ring per owner.
// Publication is strictly non-blocking: a slow or stalled subscriber
// overflows its buffer and is flagged for resync; the scheduler never
// waits on a network peer.
type EventBus struct {
	mu      sync.Mutex
	seq     uint64
	rings   map[string]*eventRing // owner -> bounded replay history
	subs    map[int]*EventSub
	nextSub int
}

// eventRing is one owner's bounded replay history.
type eventRing struct {
	buf   []JobEvent // circular; cap EventRingSize
	start int        // index of the oldest retained event
	// evicted is the Seq of the newest event dropped from the ring; a
	// resume cursor below it has lost owner events and must resync.
	evicted uint64
}

// EventSub is one subscriber's live feed. Events arrive on C; a receive
// on Overflow means the buffer spilled and the subscriber holds a gapped
// view — the server forwards that as a resync signal.
type EventSub struct {
	owner     string
	submitter string
	id        int
	// C carries this feed's events in publication order.
	C chan JobEvent
	// Overflow is signalled (capacity 1) when an event had to be dropped.
	Overflow chan struct{}
}

// subBuffer is the per-subscriber channel capacity; a burst larger than
// this between two reads of a subscriber overflows it into a resync.
const subBuffer = 1024

// NewEventBus builds an empty bus.
func NewEventBus() *EventBus {
	return &EventBus{
		rings: make(map[string]*eventRing),
		subs:  make(map[int]*EventSub),
	}
}

// publish records ev in the owner's replay ring and fans it out to the
// live subscribers of its (owner, submitter) feed without ever blocking.
func (b *EventBus) publish(ev JobEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	r := b.rings[ev.Owner]
	if r == nil {
		r = &eventRing{}
		b.rings[ev.Owner] = r
	}
	if len(r.buf) < EventRingSize {
		r.buf = append(r.buf, ev)
	} else {
		r.evicted = r.buf[r.start].Seq
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
	}
	for _, sub := range b.subs {
		if sub.owner != ev.Owner || sub.submitter != ev.Submitter {
			continue
		}
		select {
		case sub.C <- ev:
		default:
			// Full buffer: drop the event and nudge the subscriber to
			// resync rather than block the scheduler.
			select {
			case sub.Overflow <- struct{}{}:
			default:
			}
		}
	}
	b.mu.Unlock()
}

// Subscribe opens a live feed of the events of owner's jobs submitted
// under submitter. The feed's events already published with Seq > since
// are returned as replay (oldest first); resync reports that owner events
// in (since, now] were evicted from the ring (or the cursor is bogus), so
// the subscriber's view may have a gap only a full state
// resynchronisation can close. since == 0 means "no cursor": the feed's
// whole retained history is replayed.
func (b *EventBus) Subscribe(owner, submitter string, since uint64) (sub *EventSub, replay []JobEvent, resync bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub = &EventSub{
		owner:     owner,
		submitter: submitter,
		id:        b.nextSub,
		C:         make(chan JobEvent, subBuffer),
		Overflow:  make(chan struct{}, 1),
	}
	b.nextSub++
	b.subs[sub.id] = sub
	if since > b.seq {
		return sub, nil, true // cursor from another bus incarnation
	}
	r := b.rings[owner]
	if r == nil {
		return sub, nil, false
	}
	if since > 0 && since < r.evicted {
		resync = true
	}
	for i := 0; i < len(r.buf); i++ {
		ev := r.buf[(r.start+i)%len(r.buf)]
		if ev.Seq > since && ev.Submitter == submitter {
			replay = append(replay, ev)
		}
	}
	return sub, replay, resync
}

// Unsubscribe closes a feed opened by Subscribe.
func (b *EventBus) Unsubscribe(sub *EventSub) {
	if b == nil || sub == nil {
		return
	}
	b.mu.Lock()
	delete(b.subs, sub.id)
	b.mu.Unlock()
}
