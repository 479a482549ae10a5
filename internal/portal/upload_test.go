package portal

import (
	"bytes"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/blobdb"
	"repro/internal/gsh"
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
// file.
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
		fileName, err := UploadIdentity(contentType, body)
		if (err != nil) != (formErr != nil) {
			t.Fatalf("readUploadForm: %v, UploadIdentity: %v", formErr, err)
		}
		if err == nil && fileName != form.fileName {
			t.Fatalf("the form is file %q, the identity file %q", form.fileName, fileName)
		}
	})
}
