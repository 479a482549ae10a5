// Dataprocessing: a service over staged input data. The owner stages a
// corpus onto the Grid through the Cyberaide agent (the JSE side), then
// publishes a processing service whose every invocation declares the
// corpus as stage-in; the gsh job reads and processes it on the worker
// node. This is the data-intensive pattern the paper's production-Grid
// audience ran: big inputs live on the Grid, only the service call
// crosses the user's network.
//
//	GOEXPERIMENT=synctest go run ./examples/dataprocessing
package main

import (
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/appliance"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

const analyzer = `# corpus analyser: CPU proportional to input size
read corpus.txt
process corpus.txt 500
echo analysis pass ${pass} complete
write report-${pass}.txt 2048
`

// main runs the example in one process, in a testing/synctest bubble:
// grid jobs take no host time.
func main() { bubble.Run(run) }

func run() {
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{Net: pipes})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		log.Fatal(err)
	}

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
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})

	// 1. Stage the corpus through the agent (the JSE side of the house).
	sess, err := app.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	corpus := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog\n", 20_000))
	fmt.Printf("staging %.1f KB corpus to every site...\n", float64(len(corpus))/1024)
	for _, site := range app.Agent.Sites() {
		if _, err := app.Agent.Upload(sess.ID, site, "corpus.txt", corpus); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Publish the analysis service and declare its stage-in data.
	if _, err := app.OnServe.UploadAndGenerate("alice", "analyzer.gsh",
		"corpus analyser", []wsdl.ParamDef{{Name: "pass", Type: wsdl.TypeInt}},
		[]byte(analyzer)); err != nil {
		log.Fatal(err)
	}
	if err := app.OnServe.SetStageIn("AnalyzerService", []string{"corpus.txt"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("published AnalyzerService (stage-in: corpus.txt)")

	// 3. Invoke it like any Web service; only SOAP calls cross our link.
	proxy, err := wsclient.ImportURL(app.BaseURL+"/services/AnalyzerService", &http.Client{Transport: hop.NewTransport(pipes.DialContext)})
	if err != nil {
		log.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		start := time.Now()
		ticket, err := proxy.Invoke("execute", map[string]string{"pass": fmt.Sprint(pass)})
		if err != nil {
			log.Fatal(err)
		}
		out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pass %d (%.0f virtual s):\n%s", pass, time.Since(start).Seconds(), indent(out))
	}
	fmt.Println("reports written on the grid; fetch with the outputFile operation if needed")
}

func indent(s string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString("  " + line + "\n")
	}
	return sb.String()
}
