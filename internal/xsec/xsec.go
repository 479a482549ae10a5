// Package xsec implements the Grid security substrate the paper relies
// on: X.509-style identity certificates, limited proxy certificates with
// delegation chains (the Globus GSI model), and message signing. A
// production Grid "is normally accessed with strict secure interface, for
// example, with x.509 Certificates and Proxies" (paper §II-B); every
// authenticated protocol in this repository (MyProxy, GRAM, GridFTP, the
// Cyberaide agent) carries these credentials.
//
// The implementation is a faithful miniature rather than RFC 5280: Ed25519
// keys, canonical-JSON signing, and the GSI proxy rules that matter for
// behaviour (proxies are signed by the end-entity they extend, cannot
// outlive their signer, and have bounded delegation depth).
package xsec

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors returned by chain verification.
var (
	ErrExpired       = errors.New("xsec: certificate expired or not yet valid")
	ErrBadSignature  = errors.New("xsec: bad signature")
	ErrUntrusted     = errors.New("xsec: chain does not terminate at a trusted CA")
	ErrNotCA         = errors.New("xsec: issuer is not a CA")
	ErrProxyRule     = errors.New("xsec: proxy certificate violates delegation rules")
	ErrEmptyChain    = errors.New("xsec: empty chain")
	ErrProxyTooDeep  = errors.New("xsec: proxy delegation depth exceeded")
	ErrProxyOutlives = errors.New("xsec: proxy outlives its signer")
)

// MaxProxyDepth bounds delegation chains, as GSI deployments do.
const MaxProxyDepth = 8

// CertKind distinguishes the three certificate roles.
type CertKind int

// Certificate roles.
const (
	KindCA CertKind = iota
	KindUser
	KindProxy
)

// String names the kind.
func (k CertKind) String() string {
	switch k {
	case KindCA:
		return "ca"
	case KindUser:
		return "user"
	case KindProxy:
		return "proxy"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Certificate is the signed public statement binding a subject name to a
// public key.
type Certificate struct {
	Serial    string            `json:"serial"`
	Kind      CertKind          `json:"kind"`
	Subject   string            `json:"subject"` // e.g. "/O=Repro/CN=alice"
	Issuer    string            `json:"issuer"`
	NotBefore time.Time         `json:"not_before"`
	NotAfter  time.Time         `json:"not_after"`
	PublicKey ed25519.PublicKey `json:"public_key"`
	Signature []byte            `json:"signature"`
}

// tbs returns the canonical to-be-signed encoding (everything except the
// signature). Field order is fixed by the struct, so JSON is canonical.
func (c *Certificate) tbs() []byte {
	cp := *c
	cp.Signature = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		// Marshalling a plain struct of scalars cannot fail.
		panic("xsec: tbs marshal: " + err.Error())
	}
	return b
}

// Fingerprint returns a short stable identifier for the certificate.
func (c *Certificate) Fingerprint() string {
	h := sha256.Sum256(c.tbs())
	return hex.EncodeToString(h[:8])
}

// ValidAt reports whether the validity window covers at.
func (c *Certificate) ValidAt(at time.Time) bool {
	return !at.Before(c.NotBefore) && !at.After(c.NotAfter)
}

// Credential is a certificate chain plus the private key for its leaf.
// For a user credential the chain is [user]. For a proxy it is
// [proxy, ..., user] — leaf first, exactly as transmitted on the wire.
type Credential struct {
	Chain []Certificate      `json:"chain"`
	Key   ed25519.PrivateKey `json:"key"`

	// What every token SignToken makes starts with, encoded on first
	// use: the chain does not change for the life of a credential.
	headOnce sync.Once
	headB64  string // base64 of the token's JSON up to a multiple of three bytes short of the signature
	headRest string // the zero to two JSON bytes between that and the signature
	headErr  error
}

// Leaf returns the end of the chain the private key belongs to.
func (c *Credential) Leaf() *Certificate {
	if len(c.Chain) == 0 {
		return nil
	}
	return &c.Chain[0]
}

// Subject returns the leaf subject, or "" for an empty credential.
func (c *Credential) Subject() string {
	if l := c.Leaf(); l != nil {
		return l.Subject
	}
	return ""
}

// Identity returns the end-entity (user) subject a chain speaks for: the
// subject of the first non-proxy certificate.
func Identity(chain []Certificate) string {
	for i := range chain {
		if chain[i].Kind != KindProxy {
			return chain[i].Subject
		}
	}
	if len(chain) > 0 {
		return strings.SplitN(chain[0].Subject, "/CN=proxy", 2)[0]
	}
	return ""
}

// CA is a certificate authority able to issue user certificates.
type CA struct {
	Cert Certificate
	key  ed25519.PrivateKey
}

// NewCA creates a self-signed authority named name, valid for validity.
func NewCA(name string, now time.Time, validity time.Duration) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate CA key: %w", err)
	}
	subject := "/O=Repro/CN=" + name
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindCA,
		Subject:   subject,
		Issuer:    subject,
		NotBefore: now,
		NotAfter:  now.Add(validity),
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	return &CA{Cert: cert, key: priv}, nil
}

// IssueUser issues an end-entity certificate for cn.
func (ca *CA) IssueUser(cn string, now time.Time, validity time.Duration) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate user key: %w", err)
	}
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindUser,
		Subject:   "/O=Repro/CN=" + cn,
		Issuer:    ca.Cert.Subject,
		NotBefore: now,
		NotAfter:  now.Add(validity),
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(ca.key, cert.tbs())
	return &Credential{Chain: []Certificate{cert}, Key: priv}, nil
}

// Delegate creates a proxy credential signed by c's private key. The
// proxy's lifetime is clipped to its signer's (GSI rule: a proxy cannot
// outlive the credential that signed it).
func (c *Credential) Delegate(now time.Time, validity time.Duration) (*Credential, error) {
	leaf := c.Leaf()
	if leaf == nil {
		return nil, ErrEmptyChain
	}
	if depth := proxyDepth(c.Chain); depth >= MaxProxyDepth {
		return nil, ErrProxyTooDeep
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate proxy key: %w", err)
	}
	notAfter := now.Add(validity)
	if notAfter.After(leaf.NotAfter) {
		notAfter = leaf.NotAfter
	}
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindProxy,
		Subject:   leaf.Subject + "/CN=proxy",
		Issuer:    leaf.Subject,
		NotBefore: now,
		NotAfter:  notAfter,
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(c.Key, cert.tbs())
	chain := append([]Certificate{cert}, c.Chain...)
	return &Credential{Chain: chain, Key: priv}, nil
}

func proxyDepth(chain []Certificate) int {
	n := 0
	for i := range chain {
		if chain[i].Kind == KindProxy {
			n++
		}
	}
	return n
}

// TrustStore holds the CA certificates a verifier accepts, and remembers
// the chains it has verified: a session presents the same chain with every
// request, and checking its signatures again proves nothing new. A chain
// is remembered under a SHA-256 over every certificate's to-be-signed
// bytes and signature, so changing any signed field of any certificate is
// a different chain and is verified in full; with it are kept the identity
// and the span of time in which every certificate checked, the trusted
// root included, is valid. A remembered chain presented inside that span
// is accepted on those two facts alone; outside it, it is verified in full
// and fails as it always did. Add forgets every chain, since what a chain
// proves depends on the roots. The memo holds at most maxVerified chains
// and is emptied when full. A TrustStore is safe for concurrent use.
type TrustStore struct {
	mu sync.Mutex
	// roots is by subject. It is replaced, never written to, once built:
	// a verification reads the map it found without the lock.
	roots map[string]Certificate
	// memo belongs to roots: Add starts a new one along with the new map.
	memo map[[sha256.Size]byte]verifiedChain
	// fullVerifies counts the verifications that checked signatures.
	fullVerifies int
}

type verifiedChain struct {
	identity            string
	notBefore, notAfter time.Time
}

const maxVerified = 1024

// NewTrustStore builds a store from root certificates.
func NewTrustStore(roots ...Certificate) *TrustStore {
	ts := &TrustStore{roots: make(map[string]Certificate, len(roots)), memo: make(map[[sha256.Size]byte]verifiedChain)}
	for _, r := range roots {
		ts.roots[r.Subject] = r
	}
	return ts
}

// Add registers another trusted root.
func (ts *TrustStore) Add(root Certificate) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	roots := make(map[string]Certificate, len(ts.roots)+1)
	for subject, r := range ts.roots {
		roots[subject] = r
	}
	roots[root.Subject] = root
	ts.roots, ts.memo = roots, make(map[[sha256.Size]byte]verifiedChain)
}

// chainKey is what a verified chain is remembered under.
func chainKey(chain []Certificate) (key [sha256.Size]byte) {
	h := sha256.New()
	var n [8]byte
	for i := range chain {
		for _, part := range [2][]byte{chain[i].tbs(), chain[i].Signature} {
			binary.BigEndian.PutUint64(n[:], uint64(len(part)))
			h.Write(n[:])
			h.Write(part)
		}
	}
	h.Sum(key[:0])
	return key
}

// VerifyChain checks a leaf-first chain at instant at: every signature,
// every validity window, the proxy delegation rules, and that the chain
// terminates at a trusted CA. On success it returns the end-entity
// identity the chain speaks for. A chain verified before is checked
// against the validity span kept with it (see TrustStore).
func (ts *TrustStore) VerifyChain(chain []Certificate, at time.Time) (string, error) {
	if len(chain) == 0 {
		return "", ErrEmptyChain
	}
	key := chainKey(chain)
	ts.mu.Lock()
	roots, memo := ts.roots, ts.memo
	v, known := memo[key]
	if known = known && !at.Before(v.notBefore) && !at.After(v.notAfter); !known {
		ts.fullVerifies++
	}
	ts.mu.Unlock()
	if known {
		return v.identity, nil
	}
	id, err := verifyChain(roots, chain, at)
	if err != nil {
		return "", err
	}
	// Everything verifyChain held against at: each certificate's window
	// and, when the chain does not end in the root itself, the root's.
	v = verifiedChain{identity: id, notBefore: chain[0].NotBefore, notAfter: chain[0].NotAfter}
	narrow := func(c *Certificate) {
		if c.NotBefore.After(v.notBefore) {
			v.notBefore = c.NotBefore
		}
		if c.NotAfter.Before(v.notAfter) {
			v.notAfter = c.NotAfter
		}
	}
	for i := range chain {
		narrow(&chain[i])
	}
	if last := &chain[len(chain)-1]; last.Kind != KindCA {
		root := roots[last.Issuer]
		narrow(&root)
	}
	ts.mu.Lock()
	if len(memo) >= maxVerified {
		clear(memo)
	}
	memo[key] = v // a memo Add has since replaced is written in vain, never read
	ts.mu.Unlock()
	return id, nil
}

// verifyChain is the whole verification, under the given roots.
func verifyChain(roots map[string]Certificate, chain []Certificate, at time.Time) (string, error) {
	if d := proxyDepth(chain); d > MaxProxyDepth {
		return "", ErrProxyTooDeep
	}
	for i := range chain {
		cert := &chain[i]
		if !cert.ValidAt(at) {
			return "", fmt.Errorf("%w: %s [%s..%s] at %s", ErrExpired,
				cert.Subject, cert.NotBefore.Format(time.RFC3339),
				cert.NotAfter.Format(time.RFC3339), at.Format(time.RFC3339))
		}
		if i+1 < len(chain) {
			parent := &chain[i+1]
			if !ed25519.Verify(parent.PublicKey, cert.tbs(), cert.Signature) {
				return "", fmt.Errorf("%w: %s not signed by %s", ErrBadSignature, cert.Subject, parent.Subject)
			}
			if cert.Issuer != parent.Subject {
				return "", fmt.Errorf("%w: issuer %q != parent subject %q", ErrBadSignature, cert.Issuer, parent.Subject)
			}
			switch cert.Kind {
			case KindProxy:
				// A proxy is signed by the credential it extends (user or
				// another proxy), never directly by a CA.
				if parent.Kind == KindCA {
					return "", fmt.Errorf("%w: proxy signed by CA", ErrProxyRule)
				}
				if cert.NotAfter.After(parent.NotAfter) {
					return "", ErrProxyOutlives
				}
				if !strings.HasPrefix(cert.Subject, parent.Subject) {
					return "", fmt.Errorf("%w: proxy subject %q does not extend %q", ErrProxyRule, cert.Subject, parent.Subject)
				}
			case KindUser:
				if parent.Kind != KindCA {
					return "", fmt.Errorf("%w: user certificate issued by %s", ErrNotCA, parent.Kind)
				}
			case KindCA:
				return "", fmt.Errorf("%w: CA certificate inside chain", ErrProxyRule)
			}
		}
	}
	// The last element must be anchored at a trusted root: either it is a
	// trusted CA cert itself, or (the common wire form) it is an end-entity
	// cert whose issuer we trust.
	last := &chain[len(chain)-1]
	if last.Kind == KindCA {
		root, ok := roots[last.Subject]
		if !ok || !sameCert(&root, last) {
			return "", ErrUntrusted
		}
	} else {
		root, ok := roots[last.Issuer]
		if !ok {
			return "", ErrUntrusted
		}
		if !ed25519.Verify(root.PublicKey, last.tbs(), last.Signature) {
			return "", fmt.Errorf("%w: %s not signed by trusted root", ErrBadSignature, last.Subject)
		}
		if !root.ValidAt(at) {
			return "", fmt.Errorf("%w: trusted root %s", ErrExpired, root.Subject)
		}
	}
	return Identity(chain), nil
}

func sameCert(a, b *Certificate) bool {
	return a.Serial == b.Serial && string(a.Signature) == string(b.Signature)
}

// Signed is a detached signature over an arbitrary message, carrying the
// chain that authenticates the signer. This is how GRAM/GridFTP/agent
// requests are authenticated.
type Signed struct {
	Chain     []Certificate `json:"chain"`
	Signature []byte        `json:"signature"`
}

// Sign produces a Signed token over msg with c's key.
func (c *Credential) Sign(msg []byte) (*Signed, error) {
	if c.Leaf() == nil {
		return nil, ErrEmptyChain
	}
	h := sha256.Sum256(msg)
	return &Signed{
		Chain:     c.Chain,
		Signature: ed25519.Sign(c.Key, h[:]),
	}, nil
}

// Verify checks the token authenticates msg under ts at instant at and
// returns the end-entity identity.
func (ts *TrustStore) Verify(msg []byte, s *Signed, at time.Time) (string, error) {
	if s == nil || len(s.Chain) == 0 {
		return "", ErrEmptyChain
	}
	id, err := ts.VerifyChain(s.Chain, at)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(msg)
	if !ed25519.Verify(s.Chain[0].PublicKey, h[:], s.Signature) {
		return "", ErrBadSignature
	}
	return id, nil
}

// Marshal encodes a credential for storage or wire transport.
func (c *Credential) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCredential decodes a credential produced by Marshal.
func UnmarshalCredential(b []byte) (*Credential, error) {
	var c Credential
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("xsec: decode credential: %w", err)
	}
	return &c, nil
}

// MarshalChain encodes a bare chain (public half) as base64 JSON, the form
// embedded in protocol headers.
func MarshalChain(chain []Certificate) (string, error) {
	b, err := json.Marshal(chain)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// UnmarshalChain reverses MarshalChain.
func UnmarshalChain(s string) ([]Certificate, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("xsec: decode chain: %w", err)
	}
	var chain []Certificate
	if err := json.Unmarshal(b, &chain); err != nil {
		return nil, fmt.Errorf("xsec: decode chain: %w", err)
	}
	return chain, nil
}

// SignToken signs msg and returns the token in its protocol-header form,
// the string EncodeSigned gives for Sign's result. A session signs every
// request with one credential, so everything before the signature —
// the JSON of the chain, in base64 — is encoded once per credential and
// each token costs the signature and the one string it is returned in.
// The chain must not change after the first call.
func (c *Credential) SignToken(msg []byte) (string, error) {
	if c.Leaf() == nil {
		return "", ErrEmptyChain
	}
	c.headOnce.Do(func() {
		chain, err := json.Marshal(c.Chain)
		if err != nil {
			c.headErr = err
			return
		}
		head := `{"chain":` + string(chain) + `,"signature":"`
		// Base64 works in groups of three bytes: a prefix of whole
		// groups encodes the same whatever follows it.
		whole := len(head) - len(head)%3
		c.headB64 = base64.StdEncoding.EncodeToString([]byte(head[:whole]))
		c.headRest = head[whole:]
	})
	if c.headErr != nil {
		return "", c.headErr
	}
	h := sha256.Sum256(msg)
	sig := ed25519.Sign(c.Key, h[:])
	const sigB64Len = (ed25519.SignatureSize + 2) / 3 * 4
	var tail [2 + sigB64Len + len(`"}`)]byte
	n := copy(tail[:], c.headRest)
	base64.StdEncoding.Encode(tail[n:], sig)
	n += sigB64Len
	n += copy(tail[n:], `"}`)
	var enc [(len(tail) + 2) / 3 * 4]byte
	base64.StdEncoding.Encode(enc[:], tail[:n])
	return c.headB64 + string(enc[:base64.StdEncoding.EncodedLen(n)]), nil
}

// EncodeSigned encodes a Signed token for a protocol header.
func EncodeSigned(s *Signed) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeSigned reverses EncodeSigned.
func DecodeSigned(s string) (*Signed, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("xsec: decode signed token: %w", err)
	}
	var out Signed
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("xsec: decode signed token: %w", err)
	}
	return &out, nil
}

func newSerial() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("xsec: entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
