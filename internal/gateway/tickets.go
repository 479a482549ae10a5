package gateway

import (
	"sync"

	"repro/internal/core"
)

// ticketTable remembers which member issued an invocation's ticket, for
// the newest limit tickets: an appliance forgets a finished invocation
// past core.DefaultInvocationRetention of them, so a table of more than
// that per member would route to a 404. The oldest ticket is evicted
// first; if it is still alive, serveTicket's search of the fleet finds
// its member and stores it again. The zero value is one member's table.
type ticketTable struct {
	mu     sync.Mutex
	limit  int
	issuer map[string]*member
	fifo   []string // arrival order, oldest first; never longer than limit
}

func (t *ticketTable) Load(ticket string) (*member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.issuer[ticket]
	return m, ok
}

func (t *ticketTable) Store(ticket string, m *member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.issuer == nil {
		t.issuer = make(map[string]*member)
	}
	if _, known := t.issuer[ticket]; !known {
		if len(t.fifo) >= max(t.limit, core.DefaultInvocationRetention) {
			delete(t.issuer, t.fifo[0])
			t.fifo = t.fifo[1:]
		}
		t.fifo = append(t.fifo, ticket)
	}
	t.issuer[ticket] = m
}

// Delete forgets a ticket ahead of its turn; its place in the queue lapses
// when it comes up.
func (t *ticketTable) Delete(ticket string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.issuer, ticket)
}
