package cyberaide

import (
	"encoding/base64"
	"encoding/json"
	"time"

	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/jsonwarm"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// SOAP identity of the agent service.
const (
	ServiceName = "CyberaideAgent"
	Namespace   = "urn:repro:cyberaide"
)

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(&gram.StatusReply{}, []gridsim.SiteUsage{}) }

// SOAPService exposes the agent as a Web service, "the Cyberaide agent
// is a Web service and exposes its functions as Web methods" (paper §VI).
// File payloads travel base64-encoded; job descriptions travel as JSDL
// XML strings.
func (a *Agent) SOAPService() *soap.Service {
	def := wsdl.ServiceDef{
		Name:      ServiceName,
		Namespace: Namespace,
		Doc:       "Cyberaide agent: authenticated access to the production Grid",
		Operations: []wsdl.OperationDef{
			{
				Name: "authenticate",
				Doc:  "MyProxy logon; returns a session id",
				Params: []wsdl.ParamDef{
					{Name: "user", Type: wsdl.TypeString},
					{Name: "passphrase", Type: wsdl.TypeString},
					{Name: "lifetimeSeconds", Type: wsdl.TypeInt},
				},
			},
			{
				Name: "upload",
				Doc:  "Stage a base64 file to a site's GridFTP server; returns the checksum",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "site", Type: wsdl.TypeString},
					{Name: "name", Type: wsdl.TypeString},
					{Name: "dataBase64", Type: wsdl.TypeString},
				},
			},
			{
				Name: "submit",
				Doc:  "Submit a JSDL job description; returns the job id",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "jsdl", Type: wsdl.TypeString},
				},
			},
			{
				Name: "status",
				Doc:  "Job status as a JSON object",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "job", Type: wsdl.TypeString},
				},
			},
			{
				Name: "output",
				Doc:  "Job stdout snapshot",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "job", Type: wsdl.TypeString},
				},
			},
			{
				Name: "cancel",
				Doc:  "Cancel a job",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "job", Type: wsdl.TypeString},
				},
			},
			{
				Name:   "usage",
				Doc:    "Per-site accounting for the session identity, as a JSON array",
				Params: []wsdl.ParamDef{{Name: "session", Type: wsdl.TypeString}},
			},
			{
				Name: "replicate",
				Doc:  "Third-party transfer of a staged file between sites; returns the checksum",
				Params: []wsdl.ParamDef{
					{Name: "session", Type: wsdl.TypeString},
					{Name: "fromSite", Type: wsdl.TypeString},
					{Name: "toSite", Type: wsdl.TypeString},
					{Name: "name", Type: wsdl.TypeString},
				},
			},
		},
	}
	svc := soap.NewService(def)
	fault := func(err error) (string, error) {
		return "", &soap.Fault{Code: soap.FaultClient, String: err.Error()}
	}
	svc.MustBind("authenticate", func(req *soap.Request) (string, error) {
		seconds, _ := parseSeconds(req.Args["lifetimeSeconds"])
		sess, err := a.Authenticate(req.Args["user"], req.Args["passphrase"],
			time.Duration(seconds)*time.Second)
		if err != nil {
			return fault(err)
		}
		return sess.ID, nil
	})
	svc.MustBind("upload", func(req *soap.Request) (string, error) {
		data, err := base64.StdEncoding.DecodeString(req.Args["dataBase64"])
		if err != nil {
			return fault(err)
		}
		checksum, err := a.Upload(req.Args["session"], req.Args["site"], req.Args["name"], data)
		if err != nil {
			return fault(err)
		}
		return checksum, nil
	})
	svc.MustBind("submit", func(req *soap.Request) (string, error) {
		desc, err := jsdl.Unmarshal([]byte(req.Args["jsdl"]))
		if err != nil {
			return fault(err)
		}
		jobID, err := a.Submit(req.Args["session"], desc)
		if err != nil {
			return fault(err)
		}
		return jobID, nil
	})
	svc.MustBind("status", func(req *soap.Request) (string, error) {
		st, err := a.Status(req.Args["session"], req.Args["job"])
		if err != nil {
			return fault(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			return "", err
		}
		return string(b), nil
	})
	svc.MustBind("output", func(req *soap.Request) (string, error) {
		out, err := a.Output(req.Args["session"], req.Args["job"])
		if err != nil {
			return fault(err)
		}
		return out, nil
	})
	svc.MustBind("cancel", func(req *soap.Request) (string, error) {
		st, err := a.Cancel(req.Args["session"], req.Args["job"])
		if err != nil {
			return fault(err)
		}
		return st.State, nil
	})
	svc.MustBind("usage", func(req *soap.Request) (string, error) {
		usage, err := a.Usage(req.Args["session"])
		if err != nil {
			return fault(err)
		}
		b, err := json.Marshal(usage)
		if err != nil {
			return "", err
		}
		return string(b), nil
	})
	svc.MustBind("replicate", func(req *soap.Request) (string, error) {
		checksum, err := a.Replicate(req.Args["session"],
			req.Args["fromSite"], req.Args["toSite"], req.Args["name"])
		if err != nil {
			return fault(err)
		}
		return checksum, nil
	})
	return svc
}

func parseSeconds(s string) (d int64, ok bool) {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, s != ""
}
