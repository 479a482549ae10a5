package core

import (
	"encoding/base64"

	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wsdl"
)

// buildService instantiates the GridService template for one executable —
// the Go analogue of the paper's "GridService template-class [which]
// contains the code that actually initializes the execution of an
// associated executable on the Grid" plus the ant build that stamps the
// service's name into it.
//
// Every generated service carries the user-declared execute parameters
// plus the standard lifecycle operations driven by an invocation ticket:
//
//	execute(<params>)    -> ticket
//	status(ticket)       -> invocation state (JSON)
//	output(ticket)       -> stdout snapshot so far (tentative polling)
//	wait(ticket)         -> blocks until terminal, returns final output
//	cancel(ticket)       -> requests cancellation
func (o *OnServe) buildService(serviceName, description string, params []wsdl.ParamDef) *soap.Service {
	ticketParam := []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString, Doc: "invocation ticket from execute"}}
	def := wsdl.ServiceDef{
		Name:        serviceName,
		Namespace:   "urn:onserve:" + serviceName,
		Doc:         description,
		EndpointURL: o.parts.BaseURL + o.parts.Container.BasePath() + serviceName,
		Operations: []wsdl.OperationDef{
			{
				Name:   "execute",
				Doc:    "Execute the associated file on the Grid; returns an invocation ticket",
				Params: params,
			},
			{Name: "status", Doc: "Invocation status as JSON", Params: ticketParam},
			{Name: "output", Doc: "Stdout snapshot gathered so far", Params: ticketParam},
			{
				Name: "outputFile",
				Doc:  "Fetch a named output artifact of the job, base64-encoded",
				Params: []wsdl.ParamDef{
					{Name: "ticket", Type: wsdl.TypeString},
					{Name: "name", Type: wsdl.TypeString, Doc: "artifact file name"},
				},
			},
			{Name: "wait", Doc: "Block until the invocation is terminal; returns the final output", Params: ticketParam},
			{Name: "cancel", Doc: "Request cancellation of the invocation", Params: ticketParam},
		},
	}
	svc := soap.NewService(def)
	fault := func(err error) (string, error) {
		return "", &soap.Fault{Code: soap.FaultClient, String: err.Error()}
	}
	svc.MustBind("execute", func(req *soap.Request) (string, error) {
		// Malformed headers degrade to a new root trace, never a fault.
		tc, _ := trace.Parse(req.Trace)
		inv, err := o.InvokeCtx(serviceName, req.Args, tc)
		if err != nil {
			return fault(err)
		}
		return inv.Ticket, nil
	})
	svc.MustBind("status", func(req *soap.Request) (string, error) {
		inv, err := o.Invocation(req.Args["ticket"])
		if err != nil {
			return fault(err)
		}
		return inv.StatusJSON()
	})
	svc.MustBind("output", func(req *soap.Request) (string, error) {
		inv, err := o.Invocation(req.Args["ticket"])
		if err != nil {
			return fault(err)
		}
		return inv.Output(), nil
	})
	svc.MustBind("outputFile", func(req *soap.Request) (string, error) {
		data, err := o.InvocationOutputFile(req.Args["ticket"], req.Args["name"])
		if err != nil {
			return fault(err)
		}
		return base64.StdEncoding.EncodeToString(data), nil
	})
	svc.MustBind("wait", func(req *soap.Request) (string, error) {
		inv, err := o.Invocation(req.Args["ticket"])
		if err != nil {
			return fault(err)
		}
		<-inv.DoneChan()
		if msg := inv.Message(); inv.State() != InvDone && msg != "" {
			return "", &soap.Fault{Code: soap.FaultServer, String: msg}
		}
		return inv.Output(), nil
	})
	svc.MustBind("cancel", func(req *soap.Request) (string, error) {
		inv, err := o.Invocation(req.Args["ticket"])
		if err != nil {
			return fault(err)
		}
		if err := o.CancelInvocation(inv.Ticket); err != nil {
			return fault(err)
		}
		return "cancelling", nil
	})
	return svc
}
