package experiments

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
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

// burst is n argument-less calls started 1 ms apart, in index order.
func (s *service) burst(n int) error {
	return fanOut(n, 0, func(i int) error {
		time.Sleep(time.Duration(i) * time.Millisecond)
		_, err := s.call(nil)
		return err
	})
}

// door is the portal's client (form and JSON API) on an appliance or on a
// fleet gateway, with the three shapes the studies use it in.
type door struct{ portal.Client }

// door reaches the appliance over the shaped LAN, presenting key as
// X-Grid-Key when it has one.
func (r *rig) door(key string) door {
	return door{portal.Client{Base: r.app.BaseURL, HTTP: r.userHTTP, Key: key}}
}

// uploadViaPortal posts the multipart upload form, as the paper's
// browser dialog does.
func (r *rig) uploadViaPortal(fileName, program string, paramNames ...string) error {
	return r.door("").upload(fileName, program, paramNames...)
}

// upload posts the upload form for user alice: the file, and one string
// parameter per name.
func (d door) upload(fileName, program string, paramNames ...string) error {
	req := portal.UploadRequest{FileName: fileName, Content: []byte(program), User: "alice", Description: "experiment upload"}
	for _, name := range paramNames {
		req.Params = append(req.Params, wsdl.ParamDef{Name: name})
	}
	_, err := d.Upload(req)
	return err
}

// invoke starts one invocation with the single argument x; the status
// is Client.Invoke's, so a caller can count 429 sheds.
func (d door) invoke(service, x string) (ticket string, status int, err error) {
	inv, status, err := d.Invoke(service, map[string]string{"x": x})
	return inv.Ticket, status, err
}

// call is invoke then wait: one whole invocation, any refusal and any
// end but DONE an error.
func (d door) call(service, x string) (string, error) {
	ticket, status, err := d.invoke(service, x)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("invoke %s: status %d", service, status)
	}
	done, err := d.Wait(ticket)
	if err == nil && done.State != string(core.InvDone) {
		err = fmt.Errorf("wait %s: state %s: %s", ticket, done.State, done.Message)
	}
	return ticket, err
}
