package gateway

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestListenersDropSlowClients: every HTTP listener in the tree — grid,
// appliance, gateway — closes a connection that sends half a request line
// and then stalls, instead of holding it open forever.
func TestListenersDropSlowClients(t *testing.T) {
	stock := netsim.ReadHeaderTimeout
	netsim.ReadHeaderTimeout = 50 * time.Millisecond
	t.Cleanup(func() { netsim.ReadHeaderTimeout = stock })
	w := bootFleet(t, 1, nil)
	for _, l := range []struct{ name, url string }{
		{"gridenv", w.env.GramURL},
		{"appliance", w.gw.Fleet()[0].BaseURL},
		{"gateway", w.gw.BaseURL},
	} {
		t.Run(l.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(l.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET /api/st")); err != nil {
				t.Fatal(err)
			}
			// Our own deadline only bounds the test: the server must hang
			// up (with or without an error reply) long before it.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if reply, err := io.ReadAll(conn); err != nil {
				t.Fatalf("stalled request line not dropped by the server: %v after %q", err, reply)
			}
		})
	}
}
