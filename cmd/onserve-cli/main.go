// Command onserve-cli drives a running onServe appliance from the shell:
// upload executables, discover and describe generated services, invoke
// them, and collect output.
//
//	onserve-cli -portal http://127.0.0.1:8080 upload -file pi.gsh -user alice -param digits:int
//	onserve-cli -portal ... list
//	onserve-cli -portal ... discover -pattern 'Pi%'
//	onserve-cli -portal ... invoke -service PiService -arg digits=100 -wait
//	onserve-cli -portal ... output -ticket inv-000001-abcdef
//	onserve-cli -portal ... trace -ticket inv-000001-abcdef
//	onserve-cli -portal ... -key tenant-secret audit -n 20
//
// When the appliance enforces tenancy, pass the API key with -key (or
// the ONSERVE_KEY environment variable); it travels as the X-Grid-Key
// header on every request, SOAP calls included.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/uddi"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "onserve-cli:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage")

const usage = `usage: onserve-cli [-portal URL] [-key K] <command> [flags]
commands:
  upload   -file F -user U [-desc D] [-param name:type ...]
  list
  describe -service S
  discover -pattern P        (UDDI find, '%' wildcard)
  invoke   -service S [-arg k=v ...] [-wait]
  status   -ticket T
  output   -ticket T
  cancel   -ticket T
  trace    -ticket T
  delete   -service S
  audit    [-owner O] [-n N]  (tenancy audit log, needs -tenancy on the appliance)`

// cli is one command's context: where the appliance is, the client that
// stamps the key, and where output goes.
type cli struct {
	portal.Client
	out io.Writer
}

// run is the whole command line: global flags, then a command on its own
// flag set. A flag that does not parse exits with its usage, as package
// flag's command line does.
func run(args []string, stdout io.Writer) error {
	var c cli
	var key string
	fs := flag.NewFlagSet("onserve-cli", flag.ExitOnError)
	fs.StringVar(&c.Base, "portal", "http://127.0.0.1:8080", "appliance base URL")
	fs.StringVar(&key, "key", os.Getenv("ONSERVE_KEY"), "tenant API key sent as X-Grid-Key (default: $ONSERVE_KEY)")
	fs.Parse(args)
	c.HTTP, c.out = newClient(key), stdout
	cmd := commands[fs.Arg(0)]
	if cmd == nil {
		return errUsage
	}
	return cmd(c, flag.NewFlagSet(fs.Arg(0), flag.ExitOnError), fs.Args()[1:])
}

var commands = map[string]func(cli, *flag.FlagSet, []string) error{
	"upload": cli.upload, "list": cli.list, "describe": cli.describe, "discover": cli.discover,
	"invoke": cli.invoke, "status": cli.ticket, "output": cli.ticket, "cancel": cli.ticket,
	"trace": cli.waterfall, "delete": cli.remove, "audit": cli.audit,
}

// keyTransport stamps the tenant API key onto every outgoing request,
// so one -key flag covers JSON, multipart and SOAP traffic alike.
type keyTransport struct {
	key  string
	next http.RoundTripper
}

func (t *keyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set(tenant.KeyHeader, t.key)
	return t.next.RoundTrip(r)
}

func newClient(key string) *http.Client {
	if key == "" {
		return http.DefaultClient
	}
	return &http.Client{Transport: &keyTransport{key: key, next: http.DefaultTransport}}
}

func (c cli) upload(fs *flag.FlagSet, args []string) error {
	file := fs.String("file", "", "gsh executable to upload")
	user := fs.String("user", "", "portal user (must be registered on the appliance)")
	desc := fs.String("desc", "", "service description")
	var params []wsdl.ParamDef
	fs.Func("param", "parameter as name:type (repeatable)", func(p string) error {
		name, typ, _ := strings.Cut(p, ":")
		params = append(params, wsdl.ParamDef{Name: name, Type: typ})
		return nil
	})
	fs.Parse(args)
	if *file == "" || *user == "" {
		return fmt.Errorf("upload needs -file and -user")
	}
	content, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	rec, err := c.Upload(portal.UploadRequest{FileName: filepath.Base(*file), Content: content,
		User: *user, Description: *desc, Params: params})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "published %s\n  key      %s\n  endpoint %s\n  wsdl     %s\n",
		rec.Name, rec.Key, rec.Endpoint, rec.WSDLURL)
	return nil
}

func (c cli) list(*flag.FlagSet, []string) error {
	services, err := c.Services()
	for _, s := range services {
		fmt.Fprintf(c.out, "%-28v %-10v %v\n", s.ServiceName, s.Owner, s.Description)
	}
	return err
}

// serviceURL is where a generated service's SOAP endpoint and WSDL live.
func (c cli) serviceURL(name string) string { return c.Base + "/services/" + name }

func (c cli) describe(fs *flag.FlagSet, args []string) error {
	service := fs.String("service", "", "service name")
	fs.Parse(args)
	proxy, err := wsclient.ImportURL(c.serviceURL(*service), c.HTTP)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s (%s)\n%s\n", proxy.Def.Name, proxy.Def.Namespace, proxy.Def.Doc)
	for _, op := range proxy.Operations() {
		params := make([]string, len(op.Params))
		for i, p := range op.Params {
			params[i] = p.Name + " " + p.Type
		}
		fmt.Fprintf(c.out, "  %s(%s)\n", op.Name, strings.Join(params, ", "))
	}
	return nil
}

func (c cli) discover(fs *flag.FlagSet, args []string) error {
	pattern := fs.String("pattern", "%", "UDDI name pattern")
	fs.Parse(args)
	sc := soap.Client{HTTP: c.HTTP}
	out, err := sc.Call(c.serviceURL(uddi.ServiceName), uddi.Namespace, "find",
		[]soap.Param{{Name: "pattern", Value: *pattern}}, nil)
	if err != nil {
		return err
	}
	recs, err := uddi.DecodeRecords(out)
	if err != nil {
		return err
	}
	for _, r := range recs {
		fmt.Fprintf(c.out, "%-28s %s\n  %s\n", r.Name, r.Key, r.Endpoint)
	}
	if len(recs) == 0 {
		fmt.Fprintln(c.out, "no services match", *pattern)
	}
	return nil
}

// invoke goes through the service's own SOAP door, as the paper's
// customers do.
func (c cli) invoke(fs *flag.FlagSet, args []string) error {
	service := fs.String("service", "", "service name")
	wait := fs.Bool("wait", false, "block until the job finishes and print its output")
	callArgs := map[string]string{}
	fs.Func("arg", "argument as key=value (repeatable)", func(kv string) error {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return errors.New("want key=value")
		}
		callArgs[k] = v
		return nil
	})
	fs.Parse(args)
	if *service == "" {
		return fmt.Errorf("invoke needs -service")
	}
	proxy, err := wsclient.ImportURL(c.serviceURL(*service), c.HTTP)
	if err != nil {
		return err
	}
	ticket, err := proxy.Invoke("execute", callArgs)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, "ticket:", ticket)
	if !*wait {
		return nil
	}
	out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, out)
	return nil
}

// ticketFlag parses the one flag the ticket commands share.
func ticketFlag(fs *flag.FlagSet, args []string) (string, error) {
	ticket := fs.String("ticket", "", "invocation ticket")
	fs.Parse(args)
	if *ticket == "" {
		return "", fmt.Errorf("%s needs -ticket", fs.Name())
	}
	return *ticket, nil
}

// ticket is status, output and cancel: the portal's reply, printed.
func (c cli) ticket(fs *flag.FlagSet, args []string) error {
	ticket, err := ticketFlag(fs, args)
	if err != nil {
		return err
	}
	call := map[string]func(string) ([]byte, error){"status": c.Status, "output": c.Output, "cancel": c.Cancel}[fs.Name()]
	body, err := call(ticket)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, strings.TrimSpace(string(body)))
	return nil
}

// waterfall fetches the invocation's span tree and renders a text
// waterfall: one line per span, indented by depth, with duration and
// the attributes that attribute the time (site, bytes, state).
func (c cli) waterfall(fs *flag.FlagSet, args []string) error {
	ticket, err := ticketFlag(fs, args)
	if err != nil {
		return err
	}
	spans, err := c.Trace(ticket)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		fmt.Fprintln(c.out, "no spans recorded (tracing off, or evicted from the ring)")
		return nil
	}
	depth := make(map[string]int, len(spans))
	for _, sp := range spans { // spans arrive start-sorted, parents first
		d := 0
		if sp.ParentID != "" {
			d = depth[sp.ParentID] + 1
		}
		depth[sp.SpanID] = d
		line := fmt.Sprintf("%*s%s/%s %.1fms", 2*d, "", sp.Service, sp.Name, sp.DurationMS)
		for _, k := range []string{"site", "bytes", "state", "cache", "ticket"} {
			if v, ok := sp.Attrs[k]; ok {
				line += " " + k + "=" + v
			}
		}
		if sp.Status == "error" {
			line += " ERROR"
			if sp.Message != "" {
				line += " (" + sp.Message + ")"
			}
		}
		fmt.Fprintln(c.out, line)
	}
	return nil
}

func (c cli) remove(fs *flag.FlagSet, args []string) error {
	service := fs.String("service", "", "service name")
	fs.Parse(args)
	if err := c.Delete(*service); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "deleted", *service)
	return nil
}

// audit prints the appliance's tenancy audit log, newest first.
func (c cli) audit(fs *flag.FlagSet, args []string) error {
	owner := fs.String("owner", "", "filter records to one owner (empty: all)")
	n := fs.Int("n", 50, "maximum records to print")
	fs.Parse(args)
	doc, err := c.Audit(*owner, *n)
	var refused *portal.StatusError
	if errors.As(err, &refused) && refused.Status == http.StatusNotFound {
		return fmt.Errorf("audit log unavailable (appliance running without -tenancy?)")
	}
	if err != nil {
		return err
	}
	if len(doc.Records) == 0 {
		fmt.Fprintln(c.out, "no audit records")
		return nil
	}
	for _, r := range doc.Records {
		line := fmt.Sprintf("%s %-10s %-7s %-22s %-12s wait=%.1fms latency=%.1fms",
			r.Time.Format("15:04:05.000"), r.Owner, r.Verb, r.Service, r.Outcome, r.WaitMS, r.LatencyMS)
		if r.Code != "" {
			line += " code=" + r.Code
		}
		if r.Ticket != "" {
			line += " ticket=" + r.Ticket
		}
		if r.TraceID != "" {
			line += " trace=" + r.TraceID
		}
		fmt.Fprintln(c.out, line)
	}
	if doc.Dropped > 0 {
		fmt.Fprintf(c.out, "(%d older records evicted from the ring)\n", doc.Dropped)
	}
	return nil
}
