package xsec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// wireProxy is what a grid's MyProxy server sends: a proxy delegated from
// a user, two certificates, their times to the nanosecond, 843 bytes.
func wireProxy(t testing.TB) []byte {
	t.Helper()
	ca, err := NewCA("ReproGridCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("alice", t0.Add(987654321), 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := user.Delegate(t0.Add(90*time.Minute+123456789), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := proxy.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameAsEncodingJSON fails unless c holds what encoding/json decodes from b.
func sameAsEncodingJSON(t *testing.T, b []byte, c *Credential) {
	t.Helper()
	var want Credential
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%q: the fast path accepted what encoding/json refuses: %v", b, err)
	}
	if !reflect.DeepEqual(c.Chain, want.Chain) || !reflect.DeepEqual(c.Key, want.Key) {
		t.Fatalf("%q:\nfast path     %+v %x\nencoding/json %+v %x", b, c.Chain, c.Key, want.Chain, want.Key)
	}
	if c.wire != "" {
		if again, err := json.Marshal(c.Chain); err != nil || string(again) != c.wire {
			t.Fatalf("%q: kept chain bytes\n%s\nbut Marshal writes\n%s", b, c.wire, again)
		}
	}
}

func TestDecodeCredentialShapes(t *testing.T) {
	wire := wireProxy(t)
	c, ok := DecodeCredential(wire)
	if !ok || len(c.Chain) != 2 || c.wire == "" {
		t.Fatalf("a proxy as Marshal wrote it: ok %v, %d certificates, chain kept %v", ok, len(c.Chain), c.wire != "")
	}
	sameAsEncodingJSON(t, wire, c)

	// Read by hand; kept when Marshal writes the chain back the same,
	// else the chain is marshalled again when a token is signed.
	reordered := strings.Replace(string(wire), `","kind":2,`, `",`, 1)
	reordered = strings.Replace(reordered, `{"serial":`, `{"kind":2,"serial":`, 1)
	for _, row := range []struct {
		why, doc string
		kept     bool
	}{
		{"members out of order", reordered, false},
		{"an escaped subject", strings.Replace(string(wire), `CN=alice`, `CN=\u0061lice`, 1), false},
		{"an HTML byte", strings.Replace(string(wire), `CN=alice`, `CN=a&lice`, 1), false},
		{"a line separator", strings.Replace(string(wire), `CN=alice`, "CN=a\u2028lice", 1), false},
		{"a trailing zero", strings.Replace(string(wire), `.123456789Z`, `.1234567890Z`, 1), false},
		{"a zone offset", strings.Replace(string(wire), `T01:30:00.123456789Z`, `T02:30:00.123456789+01:00`, 1), true},
		{"a missing member", strings.Replace(string(wire), `"kind":2,`, ``, 1), false},
		{"no certificate", `{"chain":[],"key":""}`, false},
		{"chain after key", `{"key":"","chain":[{"serial":"","kind":1,"subject":"","issuer":"",` +
			`"not_before":"0001-01-01T00:00:00Z","not_after":"0001-01-01T00:00:00Z","public_key":"","signature":""}]}`, true},
	} {
		if row.doc == string(wire) {
			t.Errorf("%s: the edit changed nothing", row.why)
		}
		c, ok := DecodeCredential([]byte(row.doc))
		if !ok {
			t.Errorf("%s: refused %s", row.why, row.doc)
			continue
		}
		if kept := c.wire != ""; kept != row.kept {
			t.Errorf("%s: chain kept %v, want %v", row.why, kept, row.kept)
		}
		sameAsEncodingJSON(t, []byte(row.doc), c)
	}

	// Outside the shape: left to encoding/json.
	for why, doc := range map[string]string{
		"white space":          strings.Replace(string(wire), `,"key"`, `, "key"`, 1),
		"an unknown member":    strings.Replace(string(wire), `"key"`, `"extra":"","key"`, 1),
		"a key in upper case":  strings.Replace(string(wire), `"key"`, `"Key"`, 1),
		"a null chain":         `{"chain":null}`,
		"loose base64 bits":    `{"key":"QR=="}`,
		"base64 with a space":  `{"key":"QQ= ="}`,
		"a time not RFC 3339":  `{"chain":[{"not_before":"2010-06-01 00:00:00Z"}]}`,
		"a minus zero kind":    `{"chain":[{"kind":-0}]}`,
		"a nested certificate": `{"chain":[[]]}`,
	} {
		if c, ok := DecodeCredential([]byte(doc)); ok {
			t.Errorf("%s: accepted %s as %+v", why, doc, c)
		}
	}
	long := `{"chain":[` + strings.Repeat(`{},`, maxWireChain) + `{}]}`
	if _, ok := DecodeCredential([]byte(long)); ok {
		t.Errorf("a chain of %d certificates read by hand", maxWireChain+1)
	}
	if c, err := UnmarshalCredential([]byte(long)); err != nil || len(c.Chain) != maxWireChain+1 {
		t.Errorf("a long chain through encoding/json: %v", err)
	}
}

// TestTokenFromReceivedChain: a credential decoded on the fast path signs
// what the same credential signs with its chain marshalled again.
func TestTokenFromReceivedChain(t *testing.T) {
	wire := wireProxy(t)
	fast, ok := DecodeCredential(wire)
	if !ok || fast.wire == "" {
		t.Fatal("the proxy was not read by hand")
	}
	cleared := &Credential{Chain: fast.Chain, Key: fast.Key}
	var slow Credential
	if err := json.Unmarshal(wire, &slow); err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{nil, []byte("job:siteA:job-1"), bytes.Repeat([]byte("x"), 1000)} {
		a, errA := fast.SignToken(msg)
		b, errB := cleared.SignToken(msg)
		c, errC := slow.SignToken(msg)
		if errA != nil || errB != nil || errC != nil || a != b || b != c {
			t.Fatalf("%q: tokens differ:\n%s (%v)\n%s (%v)\n%s (%v)", msg, a, errA, b, errB, c, errC)
		}
	}
}

// TestLogonAllocations counts what a logon costs the client after the
// bytes arrive: the proxy's decode and the first token it signs, which
// builds the token's head.
func TestLogonAllocations(t *testing.T) {
	wire := wireProxy(t)
	msg := []byte("sites")
	allocs := testing.AllocsPerRun(200, func() {
		c, err := UnmarshalCredential(wire)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SignToken(msg); err != nil {
			t.Fatal(err)
		}
	})
	// The decode: the credential, its chain, one string for every field
	// and one array for the keys and signatures. The head: its JSON, its
	// base64 and that as a string. The token: its string.
	t.Logf("decode and first token: %.0f objects", allocs)
	if allocs > 9 {
		t.Fatalf("decode and first token cost %.0f objects, want <= 9", allocs)
	}
}

// FuzzCredential holds the hand-written decode to encoding/json: the same
// chain and key, each time with its Location, or the document is left to
// encoding/json; and a chain kept for SignToken is what Marshal writes.
func FuzzCredential(f *testing.F) {
	wire := wireProxy(f)
	f.Add(wire)
	for _, edit := range [][2]string{
		{`CN=alice`, `CN=\u0061lice`}, {`CN=alice`, `CN=a<b>&c`}, {`CN=alice`, "CN=al\u2028ice"}, {`.123456789Z`, `.12345678Z`},
		{`.123456789Z`, `.1234567890Z`}, {`T01:30:00.123456789Z`, `T02:30:00.123456789+01:00`}, {`"kind":2`, `"kind":-0`},
		{`"kind":2`, `"kind":2.0`}, {`"kind":2`, `"Kind":2`}, {`"key":"`, `"key": "`}, {`"chain":[`, `"chain":[{},`},
	} {
		f.Add([]byte(strings.Replace(string(wire), edit[0], edit[1], 1)))
	}
	for _, doc := range []string{
		`{}`, `{"chain":[]}`, `{"chain":null}`, `{"key":""}`, `{"key":"QR=="}`, `{"key":"QQ=="}`, `{"key":null}`,
		`{"chain":[{"not_before":"2010-06-01T00:00:00Z"}]}`, `{"chain":[{"not_before":"2010-06-01T00:00:00.5+00:00"}]}`,
		`{"chain":[{"public_key":"","signature":"AA=="}]}`, `{"chain":[{}],"chain":[]}`, `{"chain":[{"kind":9223372036854775807}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Credential
		wantErr := json.Unmarshal(data, &want)
		if c, ok := DecodeCredential(data); ok {
			sameAsEncodingJSON(t, data, c)
		}
		if _, err := UnmarshalCredential(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalCredential says %v, encoding/json %v", data, err, wantErr)
		}
	})
}
