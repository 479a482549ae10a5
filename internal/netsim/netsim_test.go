package netsim

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func TestLinkPacesToBandwidth(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	l := NewLink(clk, 1<<20) // 1 MiB/s virtual
	start := clk.Now()
	l.take(1 << 20)
	if elapsed := clk.Now().Sub(start); elapsed != time.Second {
		t.Fatalf("1 MiB at 1 MiB/s took %v virtual, want 1s", elapsed)
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
	clk := vtime.NewAuto()
	defer clk.Stop()
	l := NewLink(clk, 1<<20)
	start := clk.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.take(512 << 10) }()
	}
	wg.Wait()
	// 4 x 0.5 MiB at 1 MiB/s take 2 virtual seconds in aggregate.
	if elapsed := clk.Now().Sub(start); elapsed != 2*time.Second {
		t.Fatalf("shared link finished in %v, want 2s", elapsed)
	}
}

// TestNilLinkConn: a Conn wrapped with no link is unshaped — bytes go
// through both ways, and each direction is accounted at the clock's now,
// not at some instant a missing link made up.
func TestNilLinkConn(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	clk.Advance(10 * time.Second) // the fourth bucket
	c, s := pipePair(t)
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

func TestConnRoundTripPreservesBytes(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	c, s := pipePair(t)
	link := NewLink(clk, 256<<10)
	sc := Wrap(c, clk, link, nil)
	payload := bytes.Repeat([]byte("cyberaide"), 4000) // 36 KB
	go func() {
		sc.Write(payload)
		c.Close()
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
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	c, s := pipePair(t)
	sc := Wrap(c, clk, NewLink(clk, 0), probe)
	rs := Wrap(s, clk, NewLink(clk, 0), probe)
	msg := make([]byte, 10_000)
	go func() { sc.Write(msg); c.Close() }()
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

// TestTransferDurationMatchesModel: on the event clock a transfer takes
// exactly its bytes over the link's rate, whatever the host did meanwhile.
func TestTransferDurationMatchesModel(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := NewNet()
	ln := pipes.Listen()
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if s, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, s)
		}
	}()
	c, err := pipes.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	link := NewLink(clk, 85<<10) // the paper's WAN rate
	sc := Wrap(c, clk, link, nil)
	size := 256 << 10 // 256 KB takes ~3 virtual seconds
	start := clk.Now()
	if _, err := sc.Write(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start)
	c.Close()
	<-drained
	want := time.Duration(float64(size) / float64(85<<10) * float64(time.Second))
	if elapsed != want {
		t.Fatalf("transfer took %v virtual, want exactly %v", elapsed, want)
	}
}

func TestProfilesHaveExpectedRates(t *testing.T) {
	clk := vtime.Real{}
	wan := WAN(clk)
	if wan.Up.bps != 85<<10 || wan.Down.bps != 85<<10 {
		t.Fatalf("wan rates: up %v down %v", wan.Up.bps, wan.Down.bps)
	}
	lan := LAN(clk)
	if lan.Up.bps != 125<<20 {
		t.Fatalf("lan up rate %v", lan.Up.bps)
	}
	un := Unshaped(clk)
	if un.Up.bps != 0 || un.Latency != 0 {
		t.Fatal("unshaped profile should carry no shaping")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	pipes := NewNet()
	ln := NewListener(pipes.Listen(), Unshaped(clk), probe)
	defer ln.Close()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := pipes.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 5000))
	c.Close()
	<-copied
	if got := rec.Total(metrics.NetIn); got != 5000 {
		t.Fatalf("listener-side accounting saw %v bytes", got)
	}
}

func TestDialerAppliesLatencyAndShaping(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := NewNet()
	ln := pipes.Listen()
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
	d := &Dialer{Profile: profile, Net: pipes}
	start := clk.Now()
	c, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if lat := clk.Now().Sub(start); lat != 2*time.Second {
		t.Fatalf("dial latency %v virtual, want 2s", lat)
	}
	// 64 KiB across the 1 MiB/s up link: 1/16 s more.
	start = clk.Now()
	if _, err := c.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if took := clk.Now().Sub(start); took != time.Second/16 {
		t.Fatalf("64 KiB write took %v virtual, want 62.5ms", took)
	}
}

func TestDialerError(t *testing.T) {
	d := &Dialer{Profile: Unshaped(vtime.Real{}), Net: NewNet()}
	if _, err := d.DialContext(context.Background(), "tcp", "pipe1:80"); err == nil {
		t.Fatal("expected dial error to an address nobody listens on")
	}
}
