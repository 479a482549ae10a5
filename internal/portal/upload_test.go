package portal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/core"
	"repro/internal/gsh"
	"repro/internal/tenant"
)

// formPart is one part of a hand-built upload body: a text field, or the
// file part when fileName is set.
type formPart struct{ name, fileName, value string }

func buildForm(t testing.TB, parts []formPart) (contentType string, body []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		if p.fileName != "" {
			fw, err := mw.CreateFormFile(p.name, p.fileName)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(fw, p.value)
			continue
		}
		if err := mw.WriteField(p.name, p.value); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

// firstFilePart is the index of the upload among parts.
func firstFilePart(parts []formPart) int {
	for i, p := range parts {
		if p.name == "file" && p.fileName != "" {
			return i
		}
	}
	return -1
}

// TestUploadFormShapes drives /upload with the shapes a streaming
// decoder could get wrong and the buffered one never had to think about.
func TestUploadFormShapes(t *testing.T) {
	f := newFixture(t)
	file := func(name string) formPart { return formPart{"file", name, "echo ${a}${b}${c}${d}\n"} }
	user := formPart{"user", "", "alice"}

	cases := []struct {
		name    string
		parts   []formPart
		query   string
		chunked bool
		cut     int // bytes to drop from the end of the body
		status  int
		service string
		params  int
		stageIn []string
	}{
		{name: "file part first", parts: []formPart{file("first.gsh"), user, {"paramName1", "", "a"}, {"paramType1", "", "int"}},
			status: 200, service: "FirstService", params: 1},
		{name: "file part last", parts: []formPart{user, {"description", "", "d"}, {"paramName1", "", "a"}, {"stageIn", "", "x.dat, y.dat"}, file("last.gsh")},
			status: 200, service: "LastService", params: 1, stageIn: []string{"x.dat", "y.dat"}},
		{name: "file part in the middle", parts: []formPart{user, file("middle.gsh"), {"paramName1", "", "a"}, {"paramName2", "", "b"}},
			status: 200, service: "MiddleService", params: 2},
		{name: "more than three param rows", parts: []formPart{file("rows.gsh"), user,
			{"paramName1", "", "a"}, {"paramName2", "", "b"}, {"paramName3", "", "c"}, {"paramName4", "", "d"}, {"paramType4", "", "int"}},
			status: 200, service: "RowsService", params: 4},
		{name: "user in the query string", parts: []formPart{file("query.gsh")}, query: "?user=alice&paramName1=a",
			status: 200, service: "QueryService", params: 1},
		{name: "query string wins over a form field", parts: []formPart{file("wins.gsh"), {"user", "", "nobody"}}, query: "?user=alice",
			status: 200, service: "WinsService"},
		{name: "chunked transfer encoding", parts: []formPart{user, file("chunked.gsh"), {"paramName1", "", "a"}}, chunked: true,
			status: 200, service: "ChunkedService", params: 1},
		{name: "a second file part is ignored", parts: []formPart{file("one.gsh"), {"file", "two.gsh", "fail never stored\n"}, {"other", "x.bin", "zz"}, user},
			status: 200, service: "OneService"},
		{name: "missing file", parts: []formPart{user, {"paramName1", "", "a"}}, status: 400},
		{name: "file under another field name", parts: []formPart{{"upload", "other.gsh", "echo x\n"}, user}, status: 400},
		{name: "truncated inside the file", parts: []formPart{user, file("cut.gsh")}, cut: 60, status: 400},
		{name: "truncated before the closing boundary", parts: []formPart{file("cut2.gsh"), user}, cut: 8, status: 400},
		{name: "no parts at all", status: 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctype, body := buildForm(t, tc.parts)
			body = body[:len(body)-tc.cut]
			var rd io.Reader = bytes.NewReader(body)
			if tc.chunked {
				rd = struct{ io.Reader }{rd} // hides the length: no Content-Length
			}
			req, err := http.NewRequest(http.MethodPost, f.url+"/upload"+tc.query, rd)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", ctype)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			if tc.status != 200 {
				var env map[string]string
				if err := json.Unmarshal(raw, &env); err != nil || env["code"] != "bad_request" || env["error"] == "" {
					t.Fatalf("error envelope: %s", raw)
				}
				return
			}
			info, err := f.onserve.ServiceInfo(tc.service)
			if err != nil {
				t.Fatal(err)
			}
			if info.Owner != "alice" || len(info.Params) != tc.params || info.FileName != tc.parts[firstFilePart(tc.parts)].fileName {
				t.Fatalf("stored as %+v", info)
			}
			if fmt.Sprint(info.StageIn) != fmt.Sprint(tc.stageIn) {
				t.Fatalf("stage-in %v, want %v", info.StageIn, tc.stageIn)
			}
		})
	}
}

// TestUploadOversizeRefusedBeforeBuffering declares a body past the cap:
// the 413 envelope must come back without the server waiting for (or
// buffering) a single body byte.
func TestUploadOversizeRefusedBeforeBuffering(t *testing.T) {
	f := newFixture(t)
	u, _ := url.Parse(f.url)
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /upload HTTP/1.1\r\nHost: %s\r\nContent-Type: multipart/form-data; boundary=xyz\r\nContent-Length: %d\r\n\r\n",
		u.Host, int64(maxUploadBody)+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env map[string]string
	json.Unmarshal(raw, &env)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env["code"] != "too_large" || env["error"] != "portal: file too large" {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
}

// TestUploadBodyCapMapsTo413 checks the other oversize door: a body that
// runs into an http.MaxBytesReader mid-stream. The real cap is 257 MB,
// so the test narrows the request's body itself; the error is the same
// *http.MaxBytesError either reader produces.
func TestUploadBodyCapMapsTo413(t *testing.T) {
	f := newFixture(t)
	ctype, body := buildForm(t, []formPart{{"user", "", "alice"}, {"file", "big.gsh", string(gsh.Pad([]byte("echo x\n"), 64<<10))}})
	for _, chunked := range []bool{false, true} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		if chunked {
			req.ContentLength = -1
		}
		req.Body = http.MaxBytesReader(rec, req.Body, 16<<10)
		f.portal.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"portal: file too large"`) {
			t.Fatalf("chunked=%v: status %d body %s", chunked, rec.Code, rec.Body)
		}
		if _, err := f.onserve.ServiceInfo("BigService"); err == nil {
			t.Fatal("oversize upload was stored")
		}
	}
}

func TestUploadFieldBudget(t *testing.T) {
	ctype, body := buildForm(t, []formPart{
		{"file", "f.gsh", "echo x\n"},
		{"description", "", strings.Repeat("d", maxFieldBytes/2)},
		{"user", "", strings.Repeat("u", maxFieldBytes/2)},
	})
	req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	if _, err := readUploadForm(httptest.NewRecorder(), req); err == nil {
		t.Fatal("text fields past maxFieldBytes were buffered")
	}
}

// TestUploadDecodeByteBudget: decoding an upload allocates the stream a
// row will keep of the file, and nothing else of the file's size.
func TestUploadDecodeByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds the gzip writer under -race")
	}
	program := gsh.Pad([]byte("echo ${n}\n"), 256<<10)
	stored, err := blobdb.ReadStored(bytes.NewReader(program), -1, blobdb.MaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	ctype, body := buildForm(t, []formPart{{"user", "", "alice"}, {"file", "budget.gsh", string(program)}, {"paramName1", "", "n"}})
	rec := httptest.NewRecorder()
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/upload?x=1", bytes.NewReader(body))
			req.Header.Set("Content-Type", ctype)
			form, err := readUploadForm(rec, req)
			if err != nil || form.file.RawSize() != len(program) {
				b.Fatalf("decode: %v", err)
			}
		}
	}).AllocedBytesPerOp()
	if limit := int64(len(stored.Gzip)) + 64<<10; got > limit {
		t.Fatalf("decoding a %d B upload allocates %d B, budget %d (its %d B stored stream + 64 KB)", len(body), got, limit, len(stored.Gzip))
	}
}

func FuzzUploadForm(f *testing.F) {
	ctype, body := buildForm(f, []formPart{{"user", "", "alice"}, {"file", "a.gsh", "echo x\n"}, {"paramName1", "", "n"}})
	boundary := strings.TrimPrefix(ctype, "multipart/form-data; boundary=")
	f.Add(boundary, body, false)
	f.Add(boundary, body[:len(body)/2], true)
	f.Add("b", []byte("--b\r\nContent-Disposition: form-data; name=\"file\"; filename=\"\"\r\n\r\n\r\n--b--\r\n"), false)
	f.Add("b", []byte("--b\r\nContent-Disposition: form-data; name=\"file\"\r\nContent-Type: text/plain\r\n\r\nx\r\n--b\r\n\r\n--b--"), true)
	f.Add("", []byte("--\r\n\r\n"), false)
	f.Fuzz(func(t *testing.T, boundary string, body []byte, chunked bool) {
		req := httptest.NewRequest(http.MethodPost, "/upload?user=q", bytes.NewReader(body))
		req.Header.Set("Content-Type", "multipart/form-data; boundary="+boundary)
		if chunked {
			req.ContentLength = -1
		}
		form, err := readUploadForm(httptest.NewRecorder(), req)
		if err != nil {
			return
		}
		if form.file.RawSize() > len(body) {
			t.Fatalf("a file of %d bytes from a %d-byte body", form.file.RawSize(), len(body))
		}
		total := 0
		for k, vs := range form.fields {
			for _, v := range vs {
				total += len(k) + len(v)
			}
		}
		if total > maxFieldBytes+len("userq") {
			t.Fatalf("%d bytes of text fields buffered", total)
		}
		if form.fields.Get("user") != "q" {
			t.Fatalf("query-string user lost: %q", form.fields.Get("user"))
		}
	})
}

// FuzzUploadIdentity holds UploadIdentity — what the fleet gateway routes
// an upload by — to readUploadForm, what the appliance publishes it by:
// whatever the bytes and the query, both refuse or both name the same
// file and user.
func FuzzUploadIdentity(f *testing.F) {
	ctype, body := buildForm(f, []formPart{{"user", "", "bob"}, {"file", "a.gsh", "echo x\n"}, {"user", "", "alice"}})
	boundary := strings.TrimPrefix(ctype, "multipart/form-data; boundary=")
	f.Add("multipart/form-data; boundary="+boundary, "", body)
	f.Add("multipart/form-data; boundary="+boundary, "user=carol&user=dave", body)
	f.Add("multipart/form-data; boundary="+boundary, "user=&a=%zz", body)
	f.Add("multipart/mixed; boundary="+boundary, "x=1", body[:len(body)-8])
	f.Add("multipart/form-data; boundary=b", "", []byte("--b\r\nContent-Disposition: form-data; name=\"file\"\r\nContent-Type: text/plain\r\n\r\nx\r\n--b\r\nContent-Disposition: form-data; name=\"user\"; filename=\"u\"\r\n\r\neve\r\n--b--"))
	f.Add("multipart/form-data; boundary=b", "", []byte("--b\r\nContent-Disposition: form-data; name=\"user\"\r\n\r\n"+strings.Repeat("u", maxUserBytes+1)+"\r\n--b--"))
	f.Add("multipart/related; boundary=b", "", []byte("--b--"))
	f.Add("text/plain", "user=q", []byte(nil))
	f.Fuzz(func(t *testing.T, contentType, rawQuery string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
		req.URL.RawQuery = rawQuery
		req.Header.Set("Content-Type", contentType)
		form, formErr := readUploadForm(httptest.NewRecorder(), req)
		fileName, user, err := UploadIdentity(contentType, rawQuery, body)
		if (err != nil) != (formErr != nil) {
			t.Fatalf("readUploadForm: %v, UploadIdentity: %v", formErr, err)
		}
		if err == nil && (fileName != form.fileName || user != form.fields.Get("user")) {
			t.Fatalf("the form is file %q of user %q, the identity file %q of user %q", form.fileName, form.fields.Get("user"), fileName, user)
		}
	})
}

// TestStreamedUploadEdges: the file part is hashed, scanned and deflated
// while the rest of the form is still on the wire, so every way a request
// can end after that — cut short, over a cap, refused by a later check —
// must leave nothing behind: no row, no deployed service, no registry
// record, and a pooled gzip writer and scratch buffer that serve the next
// upload as if nothing had passed through them. What is accepted is stored
// under the digest and length of exactly the bytes of the first file part.
func TestStreamedUploadEdges(t *testing.T) {
	f := newTenantFixture(t, tenant.Config{
		Owners: []tenant.OwnerConfig{
			{Name: "open"},
			{Name: "meter", Rates: map[string]float64{"upload": 0.000001}, Bursts: map[string]float64{"upload": 1}},
		},
		Keys: []tenant.KeyConfig{{Key: "open-secret", Owner: "open"}, {Key: "meter-secret", Owner: "meter"}},
	})
	program := string(gsh.Pad([]byte("echo ${a}\n"), 64<<10))
	file := func(name string) formPart { return formPart{"file", name, program} }
	user := formPart{"user", "", "alice"}
	param := formPart{"paramName1", "", "a"}

	// post sends one upload straight into the handler; capAt narrows the
	// body the way the listener's 257 MB MaxBytesReader would cut it.
	post := func(key string, parts []formPart, chunked bool, cut int, capAt int64) *httptest.ResponseRecorder {
		ctype, body := buildForm(t, parts)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body[:len(body)-cut]))
		req.Header.Set("Content-Type", ctype)
		req.Header.Set(tenant.KeyHeader, key)
		if chunked {
			req.ContentLength = -1
		}
		if capAt > 0 {
			req.Body = http.MaxBytesReader(rec, req.Body, capAt)
		}
		f.portal.ServeHTTP(rec, req)
		return rec
	}
	// stored checks service against the bytes it was published from.
	stored := func(service, content string) {
		t.Helper()
		v, err := f.db.Table(core.ExecutablesTable).Open(service)
		if err != nil {
			t.Fatal(err)
		}
		if sum, err := v.Digest(); err != nil || sum != sha256.Sum256([]byte(content)) || v.RawSize != len(content) {
			t.Fatalf("%s is stored as %d bytes hashing to %x (%v), uploaded were %d", service, v.RawSize, sum, err, len(content))
		}
		if _, ok := f.container.Lookup(service); !ok {
			t.Fatalf("%s is stored and not deployed", service)
		}
	}
	if rec := post("meter-secret", []formPart{user, file("drain.gsh")}, false, 0, 0); rec.Code != http.StatusOK {
		t.Fatalf("draining the meter: %d %s", rec.Code, rec.Body)
	}

	cases := []struct {
		name    string
		key     string // "" means open-secret
		parts   []formPart
		chunked bool
		cut     int
		capAt   int64
		status  int
		message string // substring of the error envelope
	}{
		{name: "file first", parts: []formPart{file("first.gsh"), user, param}, status: 200},
		{name: "file last", parts: []formPart{user, param, file("last.gsh")}, status: 200},
		{name: "file between fields", parts: []formPart{user, file("between.gsh"), param}, status: 200},
		{name: "second file part", parts: []formPart{user, file("one.gsh"), {"file", "two.gsh", "bogus: never handed to the reader\n"}, param}, status: 200},
		{name: "chunked, no Content-Length", parts: []formPart{file("chunked.gsh"), user, param}, chunked: true, status: 200},
		{name: "cut inside the file", parts: []formPart{user, file("cutfile.gsh")}, cut: 32 << 10, status: 400},
		{name: "cut before the closing boundary", parts: []formPart{file("cutend.gsh"), user}, cut: 8, status: 400},
		{name: "cut inside the file, chunked", parts: []formPart{user, file("cutchunked.gsh")}, chunked: true, cut: 32 << 10, status: 400},
		{name: "body cap mid-file", parts: []formPart{user, file("capped.gsh")}, capAt: 16 << 10, status: 413, message: "portal: file too large"},
		{name: "body cap mid-file, chunked", parts: []formPart{user, file("cappedchunked.gsh")}, chunked: true, capAt: 16 << 10, status: 413, message: "portal: file too large"},
		{name: "bad program", parts: []formPart{user, {"file", "bad.gsh", program + "bogus statement\n"}}, status: 400, message: "not a valid gsh program"},
		{name: "unknown user", parts: []formPart{{"user", "", "stranger"}, file("stranger.gsh")}, status: 400, message: "no grid credentials"},
		{name: "unknown user outranks a bad program", parts: []formPart{{"file", "both.gsh", "bogus\n"}, {"user", "", "stranger"}}, status: 400, message: "no grid credentials"},
		{name: "bad parameter type", parts: []formPart{user, file("badparam.gsh"), param, {"paramType1", "", "quaternion"}}, status: 400, message: "parameter"},
		{name: "admission refused", key: "meter-secret", parts: []formPart{user, file("metered.gsh")}, status: 429, message: "rate"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := tc.key
			if key == "" {
				key = "open-secret"
			}
			upload := tc.parts[firstFilePart(tc.parts)]
			service, err := core.ServiceNameFor(upload.fileName)
			if err != nil {
				t.Fatal(err)
			}
			rec := post(key, tc.parts, tc.chunked, tc.cut, tc.capAt)
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.message) {
				t.Fatalf("status %d, want %d with %q: %s", rec.Code, tc.status, tc.message, rec.Body)
			}
			if tc.status == http.StatusOK {
				stored(service, upload.value)
				return
			}
			if _, err := f.db.Table(core.ExecutablesTable).Stat(service); !errors.Is(err, blobdb.ErrNotFound) {
				t.Fatalf("a refused upload left a row: %v", err)
			}
			if _, ok := f.container.Lookup(service); ok {
				t.Fatal("a refused upload left a deployed service")
			}
			if _, err := f.registry.GetByName(service); err == nil {
				t.Fatal("a refused upload left a registry record")
			}
			// The pooled codec state the refused upload used is clean.
			next := formPart{"file", fmt.Sprintf("after%d.gsh", i), program + fmt.Sprintf("echo %d\n", i)}
			if rec := post("open-secret", []formPart{user, next}, false, 0, 0); rec.Code != http.StatusOK {
				t.Fatalf("the upload after it: %d %s", rec.Code, rec.Body)
			}
			stored(fmt.Sprintf("After%dService", i), next.value)
			blobtest.VerifyStored(t, f.db)
		})
	}
}
