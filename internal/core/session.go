package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cyberaide"
	"repro/internal/trace"
)

// authenticator is the authenticate step: "Before any use of the Grid is
// possible, an authentication is required and performed by the Cyberaide
// agent."
type authenticator interface {
	// session returns a session to act for owner in, reused or not.
	session(owner string, auth UserAuth, tc trace.SpanContext) (id string, reused bool, err error)
	// current is the session owner's next invocation would reuse, if any.
	current(owner string) (id string, ok bool)
	// end is told that an invocation is done with the session session
	// handed out (reused or not), err saying why if it failed. It reports
	// whether the caller may retry on a fresh one: err refused a reused
	// session, which is then logged out and forgotten.
	end(owner, id string, reused bool, err error) (retry bool)
}

// logonPerCall is the paper's: a MyProxy logon per invocation, logged
// out when the invocation is over.
type logonPerCall struct{ o *OnServe }

func (l logonPerCall) session(owner string, auth UserAuth, tc trace.SpanContext) (string, bool, error) {
	sess, err := l.o.parts.Agent.WithTrace(tc).Authenticate(auth.MyProxyUser, auth.Passphrase, cyberaide.DefaultProxyLifetime)
	if err != nil {
		return "", false, fmt.Errorf("onserve: authenticate %s: %w", owner, err)
	}
	return sess.ID, false, nil
}

func (logonPerCall) current(string) (string, bool) { return "", false }

// end logs the invocation's own session out.
func (l logonPerCall) end(_, id string, _ bool, _ error) bool {
	l.o.parts.Agent.Logout(id)
	return false
}

// sessionCache keeps one session per owner, shared by its invocations,
// until its proxy nears expiry or the grid refuses it.
type sessionCache struct {
	logonPerCall
	mu       sync.Mutex
	sessions map[string]*ownerSession
}

// ownerSession is one cached authenticated session.
type ownerSession struct {
	id        string
	expiresAt time.Time
}

func (c *sessionCache) session(owner string, auth UserAuth, tc trace.SpanContext) (string, bool, error) {
	if id, ok := c.current(owner); ok {
		return id, true, nil
	}
	id, _, err := c.logonPerCall.session(owner, auth, tc)
	if err == nil {
		// Stop reusing a little before the proxy actually expires so
		// in-flight pipelines don't start on a session about to die.
		const lifetime = cyberaide.DefaultProxyLifetime
		c.mu.Lock()
		c.sessions[owner] = &ownerSession{id: id, expiresAt: time.Now().Add(lifetime - lifetime/10)}
		c.mu.Unlock()
	}
	return id, false, err
}

func (c *sessionCache) current(owner string) (string, bool) {
	c.mu.Lock()
	s := c.sessions[owner]
	c.mu.Unlock()
	if s == nil || !time.Now().Before(s.expiresAt) {
		return "", false
	}
	return s.id, true
}

// end keeps the session, the owner's, unless err refused it.
func (c *sessionCache) end(owner, id string, reused bool, err error) bool {
	if !reused || !isSessionFault(err) {
		return false
	}
	c.invalidate(owner, id)
	c.o.parts.Agent.Logout(id)
	return true
}

// invalidate forgets owner's cached session if it still is id.
func (c *sessionCache) invalidate(owner, id string) {
	c.mu.Lock()
	if s := c.sessions[owner]; s != nil && s.id == id {
		delete(c.sessions, owner)
	}
	c.mu.Unlock()
}

// isSessionFault reports whether err is an agent auth fault.
func isSessionFault(err error) bool {
	return errors.Is(err, cyberaide.ErrExpired) || errors.Is(err, cyberaide.ErrNoSession)
}
