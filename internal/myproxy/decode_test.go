package myproxy

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/xsec"
)

// getAnswer is what a server writes for a Get: a freshly delegated proxy,
// its times to the nanosecond, inside the response.
func getAnswer(t testing.TB) []byte {
	t.Helper()
	t0 := time.Date(2010, 6, 1, 0, 0, 0, 987654321, time.UTC)
	ca, err := xsec.NewCA("ReproGridCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("alice", t0, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := user.Delegate(t0.Add(90*time.Minute+123456789), DefaultLifetime)
	if err != nil {
		t.Fatal(err)
	}
	b, err := proxy.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := json.Marshal(response{OK: true, Credential: b})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// referenceGet is Get's answer read by encoding/json alone.
func referenceGet(msg []byte) (*xsec.Credential, error) {
	var resp response
	if err := json.Unmarshal(msg, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	var c xsec.Credential
	if err := json.Unmarshal(resp.Credential, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// FuzzGetResponse holds Get's one walk to encoding/json: for any bytes it
// accepts, the same chain and key, times with their Location; and Get's
// answer as a whole, walked or not, is refused exactly when encoding/json
// refuses it.
func FuzzGetResponse(f *testing.F) {
	msg := getAnswer(f)
	f.Add(msg)
	for _, edit := range [][2]string{
		{`"ok":true`, `"ok":false`}, {`"ok":true`, `"OK":true`}, {`{"ok":true,`, `{"ok":true,"code":"x",`},
		{`"credential":{`, `"credential":[{`}, {`"credential":{"chain"`, `"credential":{"chain":[],"chain"`},
		{`CN=alice`, `CN=\u0061lice`}, {`}],"key"`, `}] ,"key"`}, {`"key":"`, `"key":"QR==`},
	} {
		f.Add([]byte(strings.Replace(string(msg), edit[0], edit[1], 1)))
	}
	for _, doc := range []string{
		`{}`, `{"ok":true}`, `{"ok":true,"credential":null}`, `{"ok":true,"credential":"x"}`, `{"ok":true,"credential":{}}`,
		`{"ok":false,"code":"not_found","error":"no"}`, `{"ok":true,"credential":{"key":""},"ok":true}`, `{"ok":tru}`,
		`{"ok":true,"credential":{"key":"}"}}`, `{"ok":true,"credential":{]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceGet(data)
		if got, ok := getResponse(data); ok {
			if wantErr != nil || !reflect.DeepEqual(got.Chain, want.Chain) || !reflect.DeepEqual(got.Key, want.Key) {
				t.Fatalf("%q:\nwalk          %+v %x\nencoding/json %+v (%v)", data, got.Chain, got.Key, want, wantErr)
			}
		}
		if _, err := decodeGet(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Get says %v, encoding/json %v", data, err, wantErr)
		}
	})
}

// TestLogonAllocations counts what a logon costs the client once the
// answer has arrived: its decode and the first token the proxy signs.
func TestLogonAllocations(t *testing.T) {
	msg := getAnswer(t)
	if c, ok := getResponse(msg); !ok || len(c.Chain) != 2 {
		t.Fatal("a server's answer was not walked")
	}
	allocs := testing.AllocsPerRun(200, func() {
		c, err := decodeGet(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SignToken([]byte("sites")); err != nil {
			t.Fatal(err)
		}
	})
	// xsec's TestLogonAllocations: the answer around the credential costs
	// nothing more.
	t.Logf("decode and first token: %.0f objects", allocs)
	if allocs > 9 {
		t.Fatalf("decode and first token cost %.0f objects, want <= 9", allocs)
	}
}
