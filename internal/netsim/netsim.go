// Package netsim shapes network connections to a modelled bandwidth and
// latency. The full protocol stack (SOAP, GRAM,
// GridFTP, MyProxy) runs over genuine connections — loopback TCP, or the
// in-process pipes of a Net, which the experiments use — and this
// package only paces writes and accounts bytes, so transfer durations
// match the modelled link (e.g. the paper's ~85 KB/s WAN path to the
// TeraGrid node) while payloads stay byte-for-byte real.
package netsim

import (
	"context"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Link is a unidirectional fluid-FIFO bandwidth model shared by every
// connection that sends across it. Concurrent senders serialise in FIFO
// order, which reproduces the contention the paper's stress-test
// discussion predicts for "multiple simultaneous up- and downloads".
type Link struct {
	bps float64

	mu       sync.Mutex
	anchor   time.Time // where the current busy period began
	sent     float64   // bytes taken since anchor
	nextFree time.Time
}

// NewLink returns a link carrying bps bytes per second. A non-positive
// bps means unshaped (infinite bandwidth).
func NewLink(bps float64) *Link {
	return &Link{bps: bps}
}

// minSleep is the shortest wait take sleeps: every sleep costs the clock
// a step, so a shorter one stays in nextFree as pacing debt, paid on a
// later call. Without it a transfer would take one step per 4 KiB chunk.
const minSleep = time.Millisecond

// take blocks until n bytes may enter the link, returning the instant the
// last byte clears it. A nil link returns the zero time at once.
func (l *Link) take(n int) time.Time {
	if l == nil {
		return time.Time{}
	}
	now := time.Now()
	if l.bps <= 0 || n <= 0 {
		return now
	}
	l.mu.Lock()
	// A link that went idle starts a new busy period; while a transfer
	// is in flight (or its debt unpaid) the schedule stays anchored, so
	// the long-run rate is exactly bps.
	if now.After(l.nextFree) {
		l.anchor, l.sent = now, 0
	}
	// Timed from the anchor rather than chunk by chunk, so no rounding
	// accumulates over a long transfer.
	l.sent += float64(n)
	l.nextFree = l.anchor.Add(time.Duration(l.sent / l.bps * float64(time.Second)))
	clear := l.nextFree
	l.mu.Unlock()
	if wait := clear.Sub(now); wait >= minSleep {
		time.Sleep(wait)
	}
	return clear
}

// Profile bundles the two directions of a path plus a one-way latency
// charged at connection setup.
type Profile struct {
	Name    string
	Up      *Link // traffic from the dialing side toward the listener
	Down    *Link // traffic from the listener back to the dialer
	Latency time.Duration
}

// NewProfile builds a Profile with fresh links.
func NewProfile(name string, upBps, downBps float64, latency time.Duration) *Profile {
	return &Profile{
		Name:    name,
		Up:      NewLink(upBps),
		Down:    NewLink(downBps),
		Latency: latency,
	}
}

// WAN returns the paper's wide-area path to a TeraGrid node: the measured
// transfer rate was "almost constant ... at about 80 to 90 KB/s".
func WAN() *Profile {
	return NewProfile("wan", 85<<10, 85<<10, 60*time.Millisecond)
}

// LAN returns the paper's local network: "the used network operates at
// 1000Mbit/s".
func LAN() *Profile {
	return NewProfile("lan", 125<<20, 125<<20, 200*time.Microsecond)
}

// writeChunk is the pacing granularity. Small enough that multi-second
// transfers spread smoothly across 3-second sample buckets.
const writeChunk = 4 << 10

// Conn is a net.Conn whose writes are paced by a Link and whose traffic is
// accounted to a metrics probe.
type Conn struct {
	net.Conn
	tx    *Link
	probe *metrics.Probe
}

// Wrap shapes c: writes are paced on tx (nil: unshaped), and both
// directions are accounted to probe (which may be nil).
func Wrap(c net.Conn, tx *Link, probe *metrics.Probe) *Conn {
	if tx == nil {
		tx = NewLink(0) // so a write is accounted at the time of writing
	}
	return &Conn{Conn: c, tx: tx, probe: probe}
}

// Write paces the payload through the link in chunks, accounting each
// chunk as it clears: before it is written, as the peer may read it
// before the write returns, and less what a short write left unsent.
func (c *Conn) Write(p []byte) (int, error) {
	var total int
	for len(p) > 0 {
		n := len(p)
		if n > writeChunk {
			n = writeChunk
		}
		at := c.tx.take(n)
		c.probe.NetOut(at, n)
		w, err := c.Conn.Write(p[:n])
		if w < n {
			c.probe.NetOut(at, w-n)
		}
		total += w
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// Read accounts received bytes at arrival time.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.probe.NetIn(time.Now(), n)
	}
	return n, err
}

// Listener wraps Accept so every inbound connection is shaped on the
// profile's Down link (server→client direction) and accounted to probe.
type Listener struct {
	net.Listener
	profile *Profile
	probe   *metrics.Probe
}

// NewListener shapes l with profile, accounting traffic to probe.
func NewListener(l net.Listener, profile *Profile, probe *metrics.Probe) *Listener {
	return &Listener{Listener: l, profile: profile, probe: probe}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(c, l.profile.Down, l.probe), nil
}

// Dialer produces shaped client connections: writes are paced on the
// profile's Up link and connection setup pays one latency.
type Dialer struct {
	Profile *Profile
	Probe   *metrics.Probe
	Net     *Net // the in-process network dialled
}

// DialContext dials and wraps the connection. It is the dial
// hop.NewTransport, myproxy.Client and appliance.Config.GridDial take.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := d.Net.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if d.Profile.Latency > 0 {
		time.Sleep(d.Profile.Latency)
	}
	return Wrap(c, d.Profile.Up, d.Probe), nil
}
