package netsim

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func TestLinkPacesToBandwidth(t *testing.T) {
	clk := vtime.NewScaled(100)
	l := NewLink(clk, 1<<20) // 1 MiB/s virtual
	start := clk.Now()
	l.take(1 << 20)
	elapsed := clk.Now().Sub(start)
	if elapsed < 900*time.Millisecond || elapsed > 1500*time.Millisecond {
		t.Fatalf("1 MiB at 1 MiB/s took %v virtual, want ~1s", elapsed)
	}
}

func TestUnshapedLinkInstant(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	l := NewLink(clk, 0)
	done := make(chan struct{})
	go func() { l.take(1 << 30); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unshaped take blocked")
	}
}

func TestLinkSerialisesConcurrentSenders(t *testing.T) {
	clk := vtime.NewScaled(100)
	l := NewLink(clk, 1<<20)
	start := clk.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.take(512 << 10) }()
	}
	wg.Wait()
	// 4 x 0.5 MiB at 1 MiB/s must take ~2 virtual seconds in aggregate.
	elapsed := clk.Now().Sub(start)
	if elapsed < 1800*time.Millisecond {
		t.Fatalf("shared link finished in %v, want >= ~2s", elapsed)
	}
}

func TestNilLinkBps(t *testing.T) {
	var l *Link
	if l.Bps() != 0 {
		t.Fatal("nil link should report 0 bps")
	}
}

// TestNilLinkConn: a Conn wrapped with no link is unshaped, as Bps says a
// nil link is — bytes go through both ways, and each direction is accounted
// at the clock's now, not at some instant a missing link made up.
func TestNilLinkConn(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	clk.Advance(10 * time.Second) // the fourth bucket
	c, s := pipeEnds(t)
	sc := Wrap(c, clk, nil, probe)
	payload := bytes.Repeat([]byte("onserve"), 2000) // over three write chunks
	go s.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(sc, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes through a nil-link conn: %v", len(got), err)
	}
	if n, err := sc.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write through a nil-link conn: %d, %v", n, err)
	}
	if _, err := io.ReadFull(s, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("the peer read %d bytes: %v", len(got), err)
	}
	series := rec.Series()
	if len(series) != 4 || series[3].NetInBytes != float64(len(payload)) || series[3].NetOutBytes != float64(len(payload)) {
		t.Fatalf("accounted %+v, want %d bytes each way in the fourth bucket", series, len(payload))
	}
}

// pipeEnds returns a connected TCP pair on loopback so Conn semantics
// (buffered writes) match production use.
func pipeEnds(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnRoundTripPreservesBytes(t *testing.T) {
	clk := vtime.NewScaled(5000)
	c, s := pipeEnds(t)
	link := NewLink(clk, 256<<10)
	sc := Wrap(c, clk, link, nil)
	payload := bytes.Repeat([]byte("cyberaide"), 4000) // 36 KB
	go func() {
		sc.Write(payload)
		c.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestConnAccountsTraffic(t *testing.T) {
	clk := vtime.NewScaled(5000)
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	c, s := pipeEnds(t)
	sc := Wrap(c, clk, NewLink(clk, 0), probe)
	rs := Wrap(s, clk, NewLink(clk, 0), probe)
	msg := make([]byte, 10_000)
	go func() { sc.Write(msg); c.(*net.TCPConn).CloseWrite() }()
	if _, err := io.ReadAll(rs); err != nil {
		t.Fatal(err)
	}
	if got := rec.Total(metrics.NetOut); got != 10_000 {
		t.Fatalf("net out %v, want 10000", got)
	}
	if got := rec.Total(metrics.NetIn); got != 10_000 {
		t.Fatalf("net in %v, want 10000", got)
	}
}

func TestTransferDurationMatchesModel(t *testing.T) {
	clk := vtime.NewScaled(100)
	c, s := pipeEnds(t)
	link := NewLink(clk, 85<<10) // the paper's WAN rate
	sc := Wrap(c, clk, link, nil)
	size := 256 << 10 // 256 KB should take ~3 virtual seconds
	start := clk.Now()
	go func() { io.Copy(io.Discard, s) }()
	if _, err := sc.Write(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start)
	want := time.Duration(float64(size) / float64(85<<10) * float64(time.Second))
	if elapsed < want*8/10 || elapsed > want*15/10 {
		t.Fatalf("transfer took %v virtual, want ~%v", elapsed, want)
	}
}

func TestProfilesHaveExpectedRates(t *testing.T) {
	clk := vtime.Real{}
	wan := WAN(clk)
	if wan.Up.Bps() != 85<<10 || wan.Down.Bps() != 85<<10 {
		t.Fatalf("wan rates: up %v down %v", wan.Up.Bps(), wan.Down.Bps())
	}
	lan := LAN(clk)
	if lan.Up.Bps() != 125<<20 {
		t.Fatalf("lan up rate %v", lan.Up.Bps())
	}
	un := Unshaped(clk)
	if un.Up.Bps() != 0 || un.Latency != 0 {
		t.Fatal("unshaped profile should carry no shaping")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	clk := vtime.NewScaled(5000)
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(base, Unshaped(clk), probe)
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 5000))
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for rec.Total(metrics.NetIn) < 5000 {
		if time.Now().After(deadline) {
			t.Fatalf("listener-side accounting saw %v bytes", rec.Total(metrics.NetIn))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDialerAppliesLatencyAndShaping(t *testing.T) {
	clk := vtime.NewScaled(5000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	profile := NewProfile(clk, "test", 1<<20, 1<<20, 2*time.Second)
	d := &Dialer{Profile: profile}
	start := clk.Now()
	c, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if lat := clk.Now().Sub(start); lat < 1800*time.Millisecond {
		t.Fatalf("dial latency %v virtual, want ~2s", lat)
	}
}

func TestDialerError(t *testing.T) {
	clk := vtime.Real{}
	d := &Dialer{Profile: Unshaped(clk)}
	if _, err := d.DialContext(context.Background(), "tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error to closed port")
	}
}
