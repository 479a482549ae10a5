package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// pipePair returns both ends of one connection on a fresh Net.
func pipePair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	pipes := NewNet()
	ln := pipes.Listen()
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		if s, err := ln.Accept(); err == nil {
			accepted <- s
		}
	}()
	client, err := pipes.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestPipeServerRepliesBeforeReadingBody: neither side's write waits for
// the other's read, so a server that answers before it reads the request
// body — an early 413, say — does not deadlock a client still sending it.
func TestPipeServerRepliesBeforeReadingBody(t *testing.T) {
	c, s := pipePair(t)
	if _, err := s.Write([]byte("HTTP/1.1 413")); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 4<<20)
	if _, err := c.Write(body); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 12)
	if _, err := io.ReadFull(c, reply); err != nil || string(reply) != "HTTP/1.1 413" {
		t.Fatalf("reply %q, %v", reply, err)
	}
	got := make([]byte, len(body))
	if _, err := io.ReadFull(s, got); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("the body arrived as %d bytes: %v", len(got), err)
	}
}

// TestPipeCloseWakesBlockedReader: Close returns a Read blocked on the
// same end; the peer reads what was written before it, then EOF, and its
// writes fail.
func TestPipeCloseWakesBlockedReader(t *testing.T) {
	c, s := pipePair(t)
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		read <- err
	}()
	if _, err := c.Write([]byte("last")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-read; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("blocked read returned %v, want net.ErrClosed", err)
	}
	if got, err := io.ReadAll(s); err != nil || string(got) != "last" {
		t.Fatalf("peer read %q, %v", got, err)
	}
	if _, err := s.Write([]byte("late")); !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("write to a closed peer: %v", err)
	}
}

// TestPipeReadDeadline: a passing deadline fails a Read as a timeout, one
// already past wakes a Read blocked without one (how a cancelled request
// interrupts its connection), and clearing it lets reads go on.
func TestPipeReadDeadline(t *testing.T) {
	c, s := pipePair(t)
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past its deadline returned %v", err)
	}

	c.SetReadDeadline(time.Time{})
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		read <- err
	}()
	c.SetDeadline(time.Unix(1, 0)) // how hop cancels a request in flight
	if err := <-read; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a past deadline left the blocked read with %v", err)
	}

	c.SetReadDeadline(time.Time{})
	s.Write([]byte("k"))
	if n, err := c.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Fatalf("read after clearing the deadline: %d, %v", n, err)
	}
}

// TestPipeDialRefused: a closed listener's address refuses dials, as a
// TCP port nobody listens on does.
func TestPipeDialRefused(t *testing.T) {
	pipes := NewNet()
	ln := pipes.Listen()
	ln.Close()
	if _, err := pipes.DialContext(context.Background(), "tcp", ln.Addr().String()); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a closed listener: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on a closed listener: %v", err)
	}
}
