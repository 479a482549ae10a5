// Quickstart: the whole SaaS-on-Grid loop in one process.
//
// It boots a simulated TeraGrid, builds and boots the Cyberaide onServe
// appliance against it, uploads a tiny gsh executable through the portal
// (Use Scenario A), then discovers the generated Web service in UDDI,
// imports its WSDL, invokes it, and prints the Grid job's output (Use
// Scenario B).
//
//	GOEXPERIMENT=synctest go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/appliance"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

const program = `# estimate pi badly but enthusiastically
compute 2s
echo pi is roughly 3.${digits}
write estimate.dat 128
`

// main runs the example in one process, in a testing/synctest bubble:
// the job's 2s compute takes no host time.
func main() { bubble.Run(run) }

func run() {
	pipes := netsim.NewNet()
	user := &http.Client{Transport: hop.NewTransport(pipes.DialContext)}

	// 1. The production grid: sites, GRAM, GridFTP, MyProxy, CA.
	env, err := gridenv.Start(gridenv.Options{Net: pipes})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	if _, err := env.AddUser("alice", "s3cret", 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid up: %d sites, gatekeeper at %s\n", len(env.Grid.SiteNames()), env.GramURL)

	// 2. Build and boot the onServe appliance.
	img, err := appliance.BuildImage(appliance.Config{
		Endpoints:    env.Endpoints(),
		PollInterval: 3 * time.Second,
		GridDial:     pipes.DialContext,
	})
	if err != nil {
		log.Fatal(err)
	}
	app, err := img.Boot(pipes.Listen())
	if err != nil {
		log.Fatal(err)
	}
	defer app.Shutdown()
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "s3cret"})
	fmt.Printf("appliance up: portal at %s\n", app.BaseURL)

	// 3. Use Scenario A: upload the executable through the portal form.
	if _, err := (portal.Client{Base: app.BaseURL, HTTP: user}).Upload(portal.UploadRequest{
		FileName: "pi.gsh", Content: []byte(program),
		User: "alice", Description: "enthusiastic pi estimator",
		Params: []wsdl.ParamDef{{Name: "digits", Type: "int"}},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("uploaded pi.gsh -> PiService generated and published")

	// 4. Use Scenario B: discover via UDDI, wsimport the WSDL, invoke.
	sc := soap.Client{HTTP: user}
	found, err := sc.Call(app.RegistryURL(), uddi.Namespace, "find",
		[]soap.Param{{Name: "pattern", Value: "Pi%"}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := uddi.DecodeRecords(found)
	if err != nil || len(recs) == 0 {
		log.Fatalf("service not found in UDDI: %v", err)
	}
	fmt.Printf("discovered %s at %s\n", recs[0].Name, recs[0].Endpoint)

	proxy, err := wsclient.ImportURL(recs[0].Endpoint, user)
	if err != nil {
		log.Fatal(err)
	}
	ticket, err := proxy.Invoke("execute", map[string]string{"digits": "14159"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("invoked execute -> ticket %s (job runs on the grid)\n", ticket)

	out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid job output: %s", out)
	fmt.Println("quickstart complete")
}
