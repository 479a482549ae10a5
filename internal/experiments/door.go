package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/wsclient"
)

// service is a deployed executable reached the way the paper's customers
// reach it: through its generated Web service, by a wsimport-style
// proxy. Figures 6-8 and every study that compares invocation cost go
// through this door.
type service struct{ proxy *wsclient.Proxy }

// deploy uploads program through the portal's form, as uploadViaPortal
// does, and imports the generated service's WSDL.
func (r *rig) deploy(fileName, program string, paramNames ...string) (*service, error) {
	if err := r.uploadViaPortal(fileName, program, paramNames...); err != nil {
		return nil, err
	}
	name, err := core.ServiceNameFor(fileName)
	if err != nil {
		return nil, err
	}
	proxy, err := wsclient.ImportURL(r.app.BaseURL+"/services/"+name, r.userHTTP)
	if err != nil {
		return nil, err
	}
	return &service{proxy}, nil
}

// start invokes the service and returns the invocation's ticket.
func (s *service) start(args map[string]string) (string, error) {
	return s.proxy.Invoke("execute", args)
}

// wait blocks until the ticket's job is over and returns its output.
func (s *service) wait(ticket string) (string, error) {
	return s.proxy.Invoke("wait", map[string]string{"ticket": ticket})
}

// call is start then wait: one whole invocation.
func (s *service) call(args map[string]string) (string, error) {
	ticket, err := s.start(args)
	if err != nil {
		return "", err
	}
	return s.wait(ticket)
}

// burst is n simultaneous argument-less calls.
func (s *service) burst(n int) error {
	return fanOut(n, 0, func(int) error { _, err := s.call(nil); return err })
}

// door is a client of the portal's form and JSON API on an appliance or
// on a fleet gateway, presenting key as X-Grid-Key when it has one.
type door struct {
	base string
	http *http.Client
	key  string
}

// door reaches the appliance over the shaped LAN.
func (r *rig) door(key string) door { return door{r.app.BaseURL, r.userHTTP, key} }

// uploadViaPortal posts the multipart upload form, as the paper's
// browser dialog does.
func (r *rig) uploadViaPortal(fileName, program string, paramNames ...string) error {
	return r.door("").upload(fileName, program, paramNames...)
}

// do sends one request and returns the status and the whole reply body.
func (d door) do(method, path, contentType string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if d.key != "" {
		req.Header.Set(tenant.KeyHeader, d.key)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return resp.StatusCode, reply, err
}

// get fetches path and decodes its JSON reply into v.
func (d door) get(path string, v any) error {
	status, reply, err := d.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("experiments: GET %s failed (%d): %s", path, status, reply)
	}
	return json.Unmarshal(reply, v)
}

// upload posts the upload form for user alice: the file, and one string
// parameter per name.
func (d door) upload(fileName, program string, paramNames ...string) error {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", fileName)
	if err != nil {
		return err
	}
	io.WriteString(fw, program)
	mw.WriteField("user", "alice")
	mw.WriteField("description", "experiment upload")
	for i, name := range paramNames {
		mw.WriteField(fmt.Sprintf("paramName%d", i+1), name)
		mw.WriteField(fmt.Sprintf("paramType%d", i+1), "string")
	}
	mw.Close()
	status, reply, err := d.do(http.MethodPost, "/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("experiments: upload %s failed (%d): %s", fileName, status, reply)
	}
	return nil
}

// invoke starts one invocation with the single argument x. The HTTP
// status comes back beside the ticket so a caller can count 429 sheds
// without treating them as errors; the ticket is empty unless it is 200.
func (d door) invoke(service, x string) (ticket string, status int, err error) {
	payload, _ := json.Marshal(map[string]any{"service": service, "args": map[string]string{"x": x}})
	status, reply, err := d.do(http.MethodPost, "/api/invoke", "application/json", bytes.NewReader(payload))
	if err != nil || status != http.StatusOK {
		return "", status, err
	}
	var inv struct {
		Ticket string `json:"ticket"`
	}
	if err := json.Unmarshal(reply, &inv); err != nil || inv.Ticket == "" {
		return "", status, fmt.Errorf("invoke reply %q: %v", reply, err)
	}
	return inv.Ticket, status, nil
}

// wait blocks until the invocation is over; anything but DONE is an
// error.
func (d door) wait(ticket string) error {
	var done struct {
		State   string `json:"state"`
		Message string `json:"message"`
	}
	if err := d.get("/api/wait?ticket="+ticket, &done); err != nil {
		return err
	}
	if done.State != string(core.InvDone) {
		return fmt.Errorf("wait %s: state %s: %s", ticket, done.State, done.Message)
	}
	return nil
}

// call is invoke then wait: one whole invocation, any refusal an error.
func (d door) call(service, x string) (string, error) {
	ticket, status, err := d.invoke(service, x)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("invoke %s: status %d", service, status)
	}
	return ticket, d.wait(ticket)
}

// trace pulls an invocation's span tree through the portal's JSON
// export, the path `onserve-cli trace` uses.
func (d door) trace(ticket string) ([]trace.SpanData, error) {
	var doc struct {
		Spans []trace.SpanData `json:"spans"`
	}
	err := d.get("/api/trace/"+ticket, &doc)
	return doc.Spans, err
}
