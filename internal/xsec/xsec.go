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

	"repro/internal/flatjson"
	"repro/internal/jsonwarm"
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

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(&Certificate{}, []Certificate{}, &Credential{}) }

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

	// wire is the chain's JSON as DecodeCredential received it, when
	// json.Marshal writes the chain back to the same bytes: SignToken's
	// head is built from it instead.
	wire string

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
// and fails as it always did. The roots are fixed when the store is
// built, so what a remembered chain proved stays proved. The memo holds at
// most maxVerified chains and is emptied when full. A TrustStore is safe
// for concurrent use.
type TrustStore struct {
	// roots is by subject, and only read once built.
	roots map[string]Certificate

	mu   sync.Mutex
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
	v, known := ts.memo[key]
	if known = known && !at.Before(v.notBefore) && !at.After(v.notAfter); !known {
		ts.fullVerifies++
	}
	ts.mu.Unlock()
	if known {
		return v.identity, nil
	}
	id, err := verifyChain(ts.roots, chain, at)
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
		root := ts.roots[last.Issuer]
		narrow(&root)
	}
	ts.mu.Lock()
	if len(ts.memo) >= maxVerified {
		clear(ts.memo)
	}
	ts.memo[key] = v
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
	if c, ok := DecodeCredential(b); ok {
		return c, nil
	}
	var c Credential
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("xsec: decode credential: %w", err)
	}
	return &c, nil
}

// maxWireChain is the longest chain DecodeCredential reads: a proxy
// delegated MaxProxyDepth times, its user and a CA.
const maxWireChain = MaxProxyDepth + 2

// certMembers are a certificate's members in the order json.Marshal
// writes them.
var certMembers = [...]string{"serial", "kind", "subject", "issuer", "not_before", "not_after", "public_key", "signature"}

// DecodeCredential decodes, without reflection, a credential in the shape
// Marshal writes: {"chain":[certificates],"key":"…"}, each certificate a
// flat object of the members above, byte strings in canonical base64. It
// returns what encoding/json decodes; ok false means b is outside that
// shape and is UnmarshalCredential's to judge. The strings share one copy
// of b, and the keys and signatures one array. When json.Marshal would
// write the chain back as it was received — every member in order, no
// escape, times as RFC3339Nano writes them — the credential keeps those
// bytes for SignToken; its chain must then not change at all.
func DecodeCredential(b []byte) (c *Credential, ok bool) {
	var (
		certs    [maxWireChain]Certificate
		b64      [2*maxWireChain + 1][]byte // each certificate's key and signature, then the private key
		n        int
		chain    bool
		key      []byte
		verbatim = true
		from, to int // the chain's bytes
	)
	s := string(b)
	o := flatjson.Open(b)
	o.Share(s)
	for o.Next() {
		switch string(o.Key()) {
		case "chain":
			chain, from = true, o.Offset()
			a := o.Array()
			for ; a.Next(); n++ {
				if n == len(certs) {
					a.Elem().Fail()
					continue
				}
				verbatim = decodeCert(a.Elem(), &certs[n], &b64[2*n], &b64[2*n+1]) && verbatim
			}
			o.Resume(&a)
			to = o.Offset()
		case "key":
			key = o.Token()
		default:
			o.Fail()
		}
	}
	if !o.Done() {
		return nil, false
	}
	size := base64.StdEncoding.DecodedLen(len(key))
	for _, t := range b64[:2*n] {
		size += base64.StdEncoding.DecodedLen(len(t))
	}
	buf := make([]byte, size)
	decode := func(t []byte) ([]byte, bool) {
		m, err := base64.StdEncoding.Strict().Decode(buf, t)
		out := buf[:m:m]
		buf = buf[m:]
		return out, err == nil
	}
	c = &Credential{}
	if chain {
		c.Chain = make([]Certificate, n)
		for i := range c.Chain {
			c.Chain[i] = certs[i]
			cert := &c.Chain[i]
			if b64[2*i] != nil {
				if cert.PublicKey, ok = decode(b64[2*i]); !ok {
					return nil, false
				}
			}
			if b64[2*i+1] != nil {
				if cert.Signature, ok = decode(b64[2*i+1]); !ok {
					return nil, false
				}
			}
		}
		if verbatim && n > 0 {
			c.wire = s[from:to]
		}
	}
	if key != nil {
		if c.Key, ok = decode(key); !ok {
			return nil, false
		}
	}
	return c, true
}

// decodeCert walks one certificate of a chain into c, leaving its public
// key and signature in base64 for the caller, and reports whether
// json.Marshal would write it back as it stands.
func decodeCert(el *flatjson.Object, c *Certificate, pub, sig *[]byte) (verbatim bool) {
	verbatim = true
	i := 0
	for ; el.Next(); i++ {
		k := string(el.Key())
		verbatim = verbatim && i < len(certMembers) && k == certMembers[i]
		switch k {
		case "serial":
			c.Serial = el.String()
			verbatim = verbatim && el.Plain()
		case "kind":
			c.Kind = CertKind(el.Int())
		case "subject":
			c.Subject = el.String()
			verbatim = verbatim && el.Plain()
		case "issuer":
			c.Issuer = el.String()
			verbatim = verbatim && el.Plain()
		case "not_before":
			verbatim = decodeTime(el, &c.NotBefore) && verbatim
		case "not_after":
			verbatim = decodeTime(el, &c.NotAfter) && verbatim
		case "public_key":
			*pub = el.Token()
		case "signature":
			*sig = el.Token()
		default:
			el.Fail()
		}
	}
	return verbatim && i == len(certMembers)
}

// decodeTime reads a time as time.Time's UnmarshalJSON does and reports
// whether MarshalJSON writes it back as it stands.
func decodeTime(el *flatjson.Object, t *time.Time) (verbatim bool) {
	text := el.Token()
	if err := t.UnmarshalText(text); err != nil {
		el.Fail()
		return false
	}
	var buf [len(time.RFC3339Nano) + 8]byte
	return string(t.AppendFormat(buf[:0], time.RFC3339Nano)) == string(text)
}

// SignToken signs msg and returns the token in its protocol-header form:
// the base64 of a Signed's JSON, whose Signature is msg's SHA-256 signed
// with c's key. A session signs every
// request with one credential, so everything before the signature —
// the JSON of the chain, in base64 — is encoded once per credential, from
// the chain's bytes as received when DecodeCredential kept them, and
// each token costs the signature and the one string it is returned in.
// The chain must not change after the first call, nor after a decode
// that kept its bytes.
func (c *Credential) SignToken(msg []byte) (string, error) {
	if c.Leaf() == nil {
		return "", ErrEmptyChain
	}
	c.headOnce.Do(func() {
		chain := c.wire
		if chain == "" {
			b, err := json.Marshal(c.Chain)
			if err != nil {
				c.headErr = err
				return
			}
			chain = string(b)
		}
		const open, sigOpen = `{"chain":`, `,"signature":"`
		head := make([]byte, 0, len(open)+len(chain)+len(sigOpen))
		head = append(append(append(head, open...), chain...), sigOpen...)
		// Base64 works in groups of three bytes: a prefix of whole
		// groups encodes the same whatever follows it.
		rest := len(head) % 3
		c.headB64 = base64.StdEncoding.EncodeToString(head[:len(head)-rest])
		c.headRest = sigOpen[len(sigOpen)-rest:]
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

// DecodeSigned reverses SignToken.
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
