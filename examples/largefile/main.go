// Largefile: the Fig. 7 scenario as a library user would hit it — a
// ~5 MB executable whose staging saturates the ~85 KB/s WAN path to the
// Grid for about a minute, then runs quickly. The example shapes the
// appliance's grid link with netsim, measures the staging plateau on the
// appliance host, and shows how the staging cache (the paper's suggested
// improvement) removes the cost for the second invocation.
//
//	go run ./examples/largefile
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/wsdl"
)

func main() {
	// One process on an event clock: a minute of staging takes no host time.
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := netsim.NewNet()
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	wan := netsim.WAN(clk) // ~85 KB/s, the paper's measured path

	env, err := gridenv.Start(gridenv.Options{Clock: clk, Profile: wan, Net: pipes})
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
		Probe:        probe,
		Cost:         metrics.DefaultCost(),
		GridDial:     (&netsim.Dialer{Profile: wan, Probe: probe, Net: pipes}).DialContext,
		PollInterval: 9 * time.Second,
		StagingCache: true, // demonstrate the paper's suggested improvement
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

	// A ~5MB executable: mostly incompressible padding, as a real user
	// binary would be.
	program := gsh.Pad([]byte("compute 2s\necho big job done\n"), 5<<20)
	if _, err := app.OnServe.UploadAndGenerate("alice", "bigsim.gsh",
		"5MB simulation binary", []wsdl.ParamDef{}, program); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded bigsim.gsh (%.1f MB) -> BigsimService\n", float64(len(program))/(1<<20))

	for run := 1; run <= 2; run++ {
		start := clk.Now()
		out, err := app.OnServe.ExecuteAndWait("BigsimService", nil)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := clk.Now().Sub(start)
		fmt.Printf("invocation %d: %q in %.0f virtual seconds", run, out[:len(out)-1], elapsed.Seconds())
		if run == 1 {
			fmt.Printf("  (staging 5MB at ~85 KB/s dominates)")
		} else {
			fmt.Printf("  (staging cache: no re-upload)")
		}
		fmt.Println()
	}

	fmt.Println("\nappliance outbound traffic per 3s bucket (the Fig. 7 plateau):")
	fmt.Print(metrics.Chart("Network out", "B", rec.Series(),
		func(s metrics.Sample) float64 { return s.NetOutBytes }))
}
