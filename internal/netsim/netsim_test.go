package netsim

import (
	"bytes"
	"context"
	"io"
	"maps"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/metrics"
)

// TestMain runs the tests that pace on virtual time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestLinkPacesToBandwidth(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		l := NewLink(1 << 20) // 1 MiB/s virtual
		start := time.Now()
		l.take(1<<20, "")
		if elapsed := time.Since(start); elapsed != time.Second {
			t.Fatalf("1 MiB at 1 MiB/s took %v virtual, want 1s", elapsed)
		}
	})
}

func TestUnshapedLinkInstant(t *testing.T) {
	// A take that blocked on the clock would leave the bubble deadlocked.
	bubble.Test(t, func(t *testing.T) {
		l := NewLink(0)
		done := make(chan struct{})
		go func() { l.take(1<<30, ""); close(done) }()
		<-done
	})
}

func TestLinkSerialisesConcurrentSenders(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		l := NewLink(1 << 20)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); l.take(512<<10, "") }()
		}
		wg.Wait()
		// 4 x 0.5 MiB at 1 MiB/s take 2 virtual seconds in aggregate.
		if elapsed := time.Since(start); elapsed != 2*time.Second {
			t.Fatalf("shared link finished in %v, want 2s", elapsed)
		}
	})
}

// TestLinkAdmitsOneInstantInKeyOrder: senders that reach a link at one
// instant clear in the order of their keys, whichever goroutine ran
// first, and a sender whose take already returned keeps its place.
func TestLinkAdmitsOneInstantInKeyOrder(t *testing.T) {
	for _, order := range [][]string{{"a", "b", "c"}, {"c", "b", "a"}, {"b", "c", "a"}} {
		bubble.Test(t, func(t *testing.T) {
			l := NewLink(1 << 20)
			start := time.Now()
			clears := map[string]time.Duration{}
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, key := range order {
				wg.Add(1)
				go func() {
					defer wg.Done()
					at := l.take(256<<10, key)
					mu.Lock()
					clears[key] = at.Sub(start)
					mu.Unlock()
				}()
				bubble.Wait() // this sender reached the link before the next starts
			}
			wg.Wait()
			want := map[string]time.Duration{"a": 250 * time.Millisecond, "b": 500 * time.Millisecond, "c": 750 * time.Millisecond}
			if !maps.Equal(clears, want) {
				t.Errorf("arriving %v: cleared at %v, want %v", order, clears, want)
			}
		})
	}
	bubble.Test(t, func(t *testing.T) {
		l := NewLink(1 << 20)
		start := time.Now()
		small := l.take(512, "z") // under minSleep: returns at once, its place kept
		big := l.take(256<<10, "a")
		both := float64(256<<10 + 512)
		if got, want := big.Sub(start), time.Duration(both/(1<<20)*float64(time.Second)); got != want {
			t.Errorf("a take behind one that returned cleared at %v, want %v", got, want)
		}
		if small.After(big) {
			t.Errorf("the returned take moved behind the later one: %v > %v", small, big)
		}
	})
}

// TestNilLinkConn: a Conn wrapped with no link is unshaped — bytes go
// through both ways, and each direction is accounted at the time it
// moved, not at some instant a missing link made up.
func TestNilLinkConn(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := metrics.NewRecorder(3 * time.Second)
		probe := metrics.NewProbe(rec, metrics.Cost{})
		time.Sleep(10 * time.Second) // the fourth bucket
		c, s := pipePair(t)
		sc := Wrap(c, nil, probe)
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
	})
}

func TestConnRoundTripPreservesBytes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		c, s := pipePair(t)
		link := NewLink(256 << 10)
		sc := Wrap(c, link, nil)
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
	})
}

func TestConnAccountsTraffic(t *testing.T) {
	rec := metrics.NewRecorder(3 * time.Second)
	probe := metrics.NewProbe(rec, metrics.Cost{})
	c, s := pipePair(t)
	sc := Wrap(c, NewLink(0), probe)
	rs := Wrap(s, NewLink(0), probe)
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

// lateWrite is a connection whose Write returns only once released, as
// a socket's write can return after the peer has read the bytes.
type lateWrite struct {
	net.Conn
	release chan struct{}
}

func (c lateWrite) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	<-c.release
	return n, err
}

// shortWrite writes the first half of each Write and fails.
type shortWrite struct{ net.Conn }

func (c shortWrite) Write(p []byte) (int, error) {
	n, _ := c.Conn.Write(p[:len(p)/2])
	return n, io.ErrShortWrite
}

// TestConnAccountsBeforeThePeerReads: what the peer has read is already
// in the recorder, with no wait for the writer to come back from its
// Write; and a short write counts only the bytes it wrote.
func TestConnAccountsBeforeThePeerReads(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := metrics.NewRecorder(3 * time.Second)
		c, s := pipePair(t)
		release := make(chan struct{})
		sc := Wrap(lateWrite{c, release}, nil, metrics.NewProbe(rec, metrics.Cost{}))
		payload := bytes.Repeat([]byte("x"), writeChunk)
		wrote := make(chan error, 1)
		go func() {
			_, err := sc.Write(payload)
			wrote <- err
		}()
		if _, err := io.ReadFull(s, make([]byte, len(payload))); err != nil {
			t.Fatal(err)
		}
		if got := rec.Total(metrics.NetOut); got != float64(len(payload)) {
			t.Errorf("the peer read %d bytes, the recorder counts %v", len(payload), got)
		}
		close(release)
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}

		rec.Reset()
		sc = Wrap(shortWrite{c}, nil, metrics.NewProbe(rec, metrics.Cost{}))
		if n, err := sc.Write(payload); n != len(payload)/2 || err != io.ErrShortWrite {
			t.Fatalf("short write: %d, %v", n, err)
		}
		if got := rec.Total(metrics.NetOut); got != float64(len(payload)/2) {
			t.Errorf("a short write of %d bytes counted %v", len(payload)/2, got)
		}
	})
}

// TestTransferDurationMatchesModel: in a bubble a transfer takes
// exactly its bytes over the link's rate, whatever the host did meanwhile.
func TestTransferDurationMatchesModel(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
		link := NewLink(85 << 10) // the paper's WAN rate
		sc := Wrap(c, link, nil)
		size := 256 << 10 // 256 KB takes ~3 virtual seconds
		start := time.Now()
		if _, err := sc.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		c.Close()
		<-drained
		want := time.Duration(float64(size) / float64(85<<10) * float64(time.Second))
		if elapsed != want {
			t.Fatalf("transfer took %v virtual, want exactly %v", elapsed, want)
		}
	})
}

func TestProfilesHaveExpectedRates(t *testing.T) {
	wan := WAN()
	if wan.Up.bps != 85<<10 || wan.Down.bps != 85<<10 {
		t.Fatalf("wan rates: up %v down %v", wan.Up.bps, wan.Down.bps)
	}
	lan := LAN()
	if lan.Up.bps != 125<<20 {
		t.Fatalf("lan up rate %v", lan.Up.bps)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	rec := metrics.NewRecorder(3 * time.Second)
	probe := metrics.NewProbe(rec, metrics.Cost{})
	pipes := NewNet()
	ln := NewListener(pipes.Listen(), NewProfile("unshaped", 0, 0, 0), probe)
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
	bubble.Test(t, func(t *testing.T) {
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
		profile := NewProfile("test", 1<<20, 1<<20, 2*time.Second)
		d := &Dialer{Profile: profile, Net: pipes}
		start := time.Now()
		c, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if lat := time.Since(start); lat != 2*time.Second {
			t.Fatalf("dial latency %v virtual, want 2s", lat)
		}
		// 64 KiB across the 1 MiB/s up link: 1/16 s more.
		start = time.Now()
		if _, err := c.Write(make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took != time.Second/16 {
			t.Fatalf("64 KiB write took %v virtual, want 62.5ms", took)
		}
	})
}

func TestDialerError(t *testing.T) {
	d := &Dialer{Profile: NewProfile("unshaped", 0, 0, 0), Net: NewNet()}
	if _, err := d.DialContext(context.Background(), "tcp", "pipe1:80"); err == nil {
		t.Fatal("expected dial error to an address nobody listens on")
	}
}
