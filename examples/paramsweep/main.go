// Paramsweep: the workload the paper recommends for onServe — "a lot of
// relatively small files" (§VIII-B). One executable is uploaded once;
// its generated Web service is then invoked for every point of a
// parameter sweep, each invocation becoming one Grid job. The example
// reports throughput and where the jobs landed on the simulated TeraGrid.
//
//	go run ./examples/paramsweep
package main

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

const sweepProgram = `# one cell of a parameter study
compute 1s
echo cell alpha=${alpha} beta=${beta} energy=-${alpha}${beta}
write cell-${alpha}-${beta}.dat 512
`

func main() {
	// One process on an event clock: grid jobs take no host time.
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{Clock: clk, Net: pipes}) // full 11-site TeraGrid
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		log.Fatal(err)
	}
	img, err := appliance.BuildImage(appliance.Config{
		Endpoints:    env.Endpoints(),
		Clock:        clk,
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

	// Upload once through the Go API (the portal form does the same).
	if _, err := app.OnServe.UploadAndGenerate("alice", "sweepcell.gsh",
		"one cell of the alpha/beta parameter study",
		[]wsdl.ParamDef{
			{Name: "alpha", Type: wsdl.TypeInt},
			{Name: "beta", Type: wsdl.TypeInt},
		},
		[]byte(sweepProgram)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("uploaded sweepcell.gsh -> SweepcellService")

	proxy, err := wsclient.ImportURL(app.BaseURL+"/services/SweepcellService", &http.Client{Transport: hop.NewTransport(pipes.DialContext)})
	if err != nil {
		log.Fatal(err)
	}

	// 4x4 sweep, eight concurrent clients.
	const alphas, betas, workers = 4, 4, 8
	type cell struct{ alpha, beta int }
	cells := make(chan cell, alphas*betas)
	for a := 1; a <= alphas; a++ {
		for b := 1; b <= betas; b++ {
			cells <- cell{a, b}
		}
	}
	close(cells)

	start := clk.Now()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				ticket, err := proxy.Invoke("execute", map[string]string{
					"alpha": strconv.Itoa(c.alpha),
					"beta":  strconv.Itoa(c.beta),
				})
				if err != nil {
					log.Fatal(err)
				}
				out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				results = append(results, strings.TrimSpace(out))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)

	fmt.Printf("%d sweep cells completed in %.1f virtual seconds (%.1f jobs/min)\n",
		len(results), elapsed.Seconds(), float64(len(results))/elapsed.Minutes())
	for _, r := range results[:3] {
		fmt.Println(" ", r)
	}
	fmt.Println("  ...")

	fmt.Println("grid job distribution:")
	for _, st := range env.Grid.Stats() {
		if st.Completed > 0 {
			fmt.Printf("  %-14s %3d jobs\n", st.Name, st.Completed)
		}
	}
}
