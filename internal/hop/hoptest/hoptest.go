// Package hoptest holds a pooled connection's fault for tests of hop's users.
package hoptest

import (
	"errors"
	"net"
	"sync/atomic"
)

// DeadOnReuse, returned by a hop.NewTransport dial, is a connection whose peer
// left while it sat in the pool: once Armed, a write fails with nothing written.
type DeadOnReuse struct {
	net.Conn
	Armed *atomic.Bool
}

func (c DeadOnReuse) Write(p []byte) (int, error) {
	if c.Armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("connection reset by peer")
	}
	return c.Conn.Write(p)
}
