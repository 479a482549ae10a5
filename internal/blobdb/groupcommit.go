package blobdb

import (
	"sync"
)

// groupCommitter batches concurrent WAL appends into one write with a
// single fsync. Writers hand their entry to the committer goroutine and
// block until their batch is durable; the committer drains everything
// queued, appends the batch in one write, syncs once, and only then —
// append-before-apply — applies the entries to memory in batch order.
//
// Compared with the stock path (one unsynced write per mutation under
// the database lock), group commit both amortises the flush across the
// batch and upgrades durability: an acknowledged Put survives a crash.
//
// Each committer serves one shard: with WALShards >= 2 there are N of
// them, so batches on different shards form and flush in parallel.
type groupCommitter struct {
	s    *shard
	ch   chan *commitReq
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

type commitReq struct {
	entry *walEntry
	errc  chan error
}

func startGroupCommitter(s *shard) *groupCommitter {
	g := &groupCommitter{
		s:    s,
		ch:   make(chan *commitReq, 256),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go g.run()
	return g
}

// commit enqueues one entry and blocks until it is durable and applied.
func (g *groupCommitter) commit(e *walEntry) error {
	req := &commitReq{entry: e, errc: make(chan error, 1)}
	select {
	case g.ch <- req:
	case <-g.stop:
		return ErrClosed
	}
	select {
	case err := <-req.errc:
		return err
	case <-g.done:
		// The committer drained and exited; the request either made the
		// final batch (errc is buffered) or lost the shutdown race.
		select {
		case err := <-req.errc:
			return err
		default:
			return ErrClosed
		}
	}
}

// shutdown stops the committer after it flushes everything queued.
func (g *groupCommitter) shutdown() {
	g.once.Do(func() { close(g.stop) })
	<-g.done
}

func (g *groupCommitter) run() {
	defer close(g.done)
	for {
		var batch []*commitReq
		select {
		case r := <-g.ch:
			batch = append(batch, r)
		case <-g.stop:
			for {
				select {
				case r := <-g.ch:
					batch = append(batch, r)
				default:
					if len(batch) > 0 {
						g.flush(batch)
					}
					return
				}
			}
		}
		// Opportunistic batching: take whatever else queued up while the
		// previous flush was on the disk.
		for more := true; more; {
			select {
			case r := <-g.ch:
				batch = append(batch, r)
			default:
				more = false
			}
		}
		g.flush(batch)
	}
}

// flush makes one WAL append + fsync for the whole batch, then applies
// the entries in batch order and releases the waiters.
func (g *groupCommitter) flush(batch []*commitReq) {
	s := g.s
	buf := frames.Get()
	buf.Reset()
	sizes := make([]int, len(batch))
	errs := make([]error, len(batch))
	prev := 0
	for i, r := range batch {
		errs[i] = appendEntry(buf, r.entry)
		sizes[i] = buf.Len() - prev
		prev = buf.Len()
	}
	s.mu.Lock()
	var werr error
	switch {
	case s.closed:
		werr = ErrClosed
	case s.wal != nil && buf.Len() > 0:
		if err := s.maybeRoll(); err != nil {
			werr = err
			break
		}
		if _, err := s.wal.Write(buf.Bytes()); err != nil {
			werr = err
		} else if err := s.wal.Sync(); err != nil {
			werr = err
		} else {
			s.walWrites++
			s.walSyncs++
			s.noteWritten(int64(buf.Len()))
		}
	}
	for i, r := range batch {
		if errs[i] == nil {
			errs[i] = werr
		}
		if errs[i] == nil {
			s.apply(r.entry, s.seg)
			s.db.probe.DiskWrite(sizes[i])
		}
	}
	s.mu.Unlock()
	frames.Put(buf)
	for i, r := range batch {
		r.errc <- errs[i]
	}
}
