package tenant

import (
	"crypto/sha256"
	"crypto/subtle"
	"sync"
)

// KeyHeader is the HTTP header carrying the caller's API key. The
// portal reads it from the request header block — which arrives before
// any body bytes — so authentication never requires touching the body.
const KeyHeader = "X-Grid-Key"

// maxKeyLen bounds accepted key material. Keys are opaque bearer
// tokens; 128 bytes is far beyond any reasonable entropy requirement
// and keeps the constant-time digest work bounded.
const maxKeyLen = 128

// ParseKeyHeader extracts the bearer token from an X-Grid-Key header
// value. It accepts the raw token or a "Grid <token>" scheme prefix,
// tolerates surrounding whitespace, and requires 1..128 visible-ASCII
// bytes. It is total: any input returns (token, true) or ("", false),
// never a panic — it runs before authentication on every request, so
// it is fuzzed (FuzzKeyHeader) the same way the trace and route
// parsers are.
func ParseKeyHeader(v string) (string, bool) {
	v = trimSpace(v)
	if len(v) >= 5 && equalFold(v[:4], "grid") && (v[4] == ' ' || v[4] == '\t') {
		v = trimSpace(v[5:])
	}
	if len(v) == 0 || len(v) > maxKeyLen {
		return "", false
	}
	for i := 0; i < len(v); i++ {
		if v[i] < '!' || v[i] > '~' {
			return "", false
		}
	}
	return v, true
}

// trimSpace trims ASCII space and tab without pulling in strings'
// unicode machinery for a hot pre-auth path.
func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// equalFold is ASCII-only case folding for the scheme tag.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// keyset maps API keys to owners. Keys are stored as SHA-256 digests —
// the plaintext never lives in memory past registration — and lookup
// scans every entry with a constant-time digest compare, accumulating
// the match instead of early-exiting, so response timing does not leak
// how close a guess came or where in the set a key sits.
type keyset struct {
	mu      sync.RWMutex
	entries []keyEntry
}

type keyEntry struct {
	digest [sha256.Size]byte
	owner  string
}

// lookup resolves a token to its owner.
func (k *keyset) lookup(token string) (string, bool) {
	d := sha256.Sum256([]byte(token))
	k.mu.RLock()
	defer k.mu.RUnlock()
	owner := ""
	found := false
	for i := range k.entries {
		if subtle.ConstantTimeCompare(d[:], k.entries[i].digest[:]) == 1 && !found {
			owner = k.entries[i].owner
			found = true
		}
	}
	return owner, found
}

// set registers (or re-points) a key; it is safe mid-burst because
// lookup holds only a read lock per request.
func (k *keyset) set(token, owner string) {
	d := sha256.Sum256([]byte(token))
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.entries {
		if k.entries[i].digest == d {
			k.entries[i].owner = owner
			return
		}
	}
	k.entries = append(k.entries, keyEntry{digest: d, owner: owner})
}

// size reports how many keys are registered.
func (k *keyset) size() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.entries)
}
