package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// Client speaks the portal's form and JSON API to an appliance or to a
// fleet gateway — the one place outside the handlers that spells a path,
// a query key or the upload form. The CLI, the experiments' rigs and the
// quickstart are all this client.
type Client struct {
	Base string       // root URL, no trailing slash
	HTTP *http.Client // nil: http.DefaultClient
	Key  string       // sent as X-Grid-Key when not empty
}

// StatusError is a reply other than the 200 a call needs. Op is the call,
// under the CLI's command name for it.
type StatusError struct {
	Op     string
	Status int
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s failed (%d): %s", e.Op, e.Status, e.Body)
}

// call is one round trip. Any status but 200 is a *StatusError; a 200's
// body is returned, decoded into v unless v is nil.
func (c Client) call(op, method, path string, query url.Values, contentType string, body []byte, v any) ([]byte, error) {
	if len(query) > 0 {
		path += "?" + query.Encode()
	}
	req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Key != "" {
		req.Header.Set(tenant.KeyHeader, c.Key)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Op: op, Status: resp.StatusCode, Body: reply}
	}
	if v != nil {
		err = json.Unmarshal(reply, v)
	}
	return reply, err
}

// byTicket is call for /api/<op>?ticket=.
func (c Client) byTicket(op, method, ticket string, v any) ([]byte, error) {
	return c.call(op, method, "/api/"+op, url.Values{"ticket": {ticket}}, "", nil, v)
}

// UploadRequest is what the "Upload file and generate Web Service" form
// carries.
type UploadRequest struct {
	FileName    string
	Content     []byte
	User        string
	Description string
	Params      []wsdl.ParamDef // an empty Type is "string"
}

// Upload posts the form and returns the registration it published.
func (c Client) Upload(u UploadRequest) (rec uddi.Record, err error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", u.FileName)
	if err != nil {
		return rec, err
	}
	fw.Write(u.Content)
	mw.WriteField("user", u.User)
	mw.WriteField("description", u.Description)
	for i, p := range u.Params {
		if p.Type == "" {
			p.Type = wsdl.TypeString
		}
		mw.WriteField("paramName"+strconv.Itoa(i+1), p.Name)
		mw.WriteField("paramType"+strconv.Itoa(i+1), p.Type)
	}
	mw.Close()
	_, err = c.call("upload", http.MethodPost, "/upload", nil, mw.FormDataContentType(), buf.Bytes(), &rec)
	return rec, err
}

// Invoke starts one invocation. A refusal is not an error: its HTTP
// status comes back beside an empty reply, so a caller can count 429
// sheds.
func (c Client) Invoke(service string, args map[string]string) (inv InvokeReply, status int, err error) {
	payload, err := json.Marshal(InvokeRequest{Service: service, Args: args})
	if err != nil {
		return inv, 0, err
	}
	_, err = c.call("invoke", http.MethodPost, "/api/invoke", nil, "application/json", payload, &inv)
	var refused *StatusError
	switch {
	case errors.As(err, &refused):
		return inv, refused.Status, nil
	case err != nil:
		return inv, 0, err
	case inv.Ticket == "":
		err = errors.New("invoke reply carries no ticket")
	}
	return inv, http.StatusOK, err
}

// Wait blocks until the invocation is over and returns how it ended.
func (c Client) Wait(ticket string) (done WaitReply, err error) {
	_, err = c.byTicket("wait", http.MethodGet, ticket, &done)
	return done, err
}

// Status, Output and Cancel return their replies as the portal wrote
// them: the status document, the job's output so far, the cancel
// acknowledgement.
func (c Client) Status(ticket string) ([]byte, error) {
	return c.byTicket("status", http.MethodGet, ticket, nil)
}

func (c Client) Output(ticket string) ([]byte, error) {
	return c.byTicket("output", http.MethodGet, ticket, nil)
}

func (c Client) Cancel(ticket string) ([]byte, error) {
	return c.byTicket("cancel", http.MethodPost, ticket, nil)
}

// Trace returns an invocation's span tree, start-sorted, parents first.
func (c Client) Trace(ticket string) ([]trace.SpanData, error) {
	var doc struct {
		Spans []trace.SpanData `json:"spans"`
	}
	_, err := c.byTicket("trace", http.MethodGet, ticket, &doc)
	return doc.Spans, err
}

// Delete removes a service.
func (c Client) Delete(service string) error {
	_, err := c.call("delete", http.MethodPost, "/api/delete", url.Values{"name": {service}}, "", nil, nil)
	return err
}

// Services lists what is deployed.
func (c Client) Services() (infos []core.ExecutableInfo, err error) {
	_, err = c.call("list", http.MethodGet, "/api/services", nil, "", nil, &infos)
	return infos, err
}

// Audit returns the newest n records of the tenancy audit log, owner's
// only unless owner is empty. An appliance without tenancy answers 404.
func (c Client) Audit(owner string, n int) (doc AuditReply, err error) {
	query := url.Values{"n": {strconv.Itoa(n)}}
	if owner != "" {
		query.Set("owner", owner)
	}
	_, err = c.call("audit", http.MethodGet, "/api/audit", query, "", nil, &doc)
	return doc, err
}
