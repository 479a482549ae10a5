package netsim

import (
	"net/http"
	"time"
)

// Listener timeouts every HTTP server in the tree shares. They are
// variables only so a slow-client test can shorten them before booting a
// server; nothing else assigns them.
var (
	// ReadHeaderTimeout bounds how long a connection may take to deliver
	// one request's headers, so a client that trickles (or never
	// finishes) a request line cannot hold a connection forever.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout closes keep-alive connections that stay quiet. It is
	// longer than net/http's client-side default (90 s), so in-tree
	// clients retire an idle connection before the server does.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer is the one constructor behind the appliance, gateway and
// grid listeners, so their timeouts cannot drift apart. There is no
// WriteTimeout: the /gram/events stream and large uploads are legitimate
// long exchanges.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
