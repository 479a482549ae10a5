// Multiuser: "the access layer can be deployed locally by a user, or
// deployed in a shared remote location and used by multiple users"
// (paper §V). Three users with distinct Grid identities share one
// appliance: each stores credentials in MyProxy, uploads an executable,
// and invokes the generated services — including each other's, since a
// published service executes under its owner's delegated credential.
//
//	go run ./examples/multiuser
package main

import (
	"fmt"
	"log"
	"net/http"
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

func main() {
	// One process on an event clock: grid jobs take no host time.
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := netsim.NewNet()
	user := &http.Client{Transport: hop.NewTransport(pipes.DialContext)}
	env, err := gridenv.Start(gridenv.Options{Clock: clk, Net: pipes})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	users := []string{"alice", "bob", "carol"}
	for _, u := range users {
		if _, err := env.AddUser(u, u+"-pass", 0); err != nil {
			log.Fatal(err)
		}
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
	for _, u := range users {
		app.OnServe.RegisterUser(u, core.UserAuth{MyProxyUser: u, Passphrase: u + "-pass"})
	}
	fmt.Printf("shared appliance at %s serving %d users\n", app.BaseURL, len(users))

	// Each user uploads their own tool concurrently.
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			program := fmt.Sprintf("compute 1s\necho %s-tool ran for ${caller}\n", u)
			if _, err := app.OnServe.UploadAndGenerate(u, u+"tool.gsh",
				u+"'s analysis tool",
				[]wsdl.ParamDef{{Name: "caller", Type: wsdl.TypeString}},
				[]byte(program)); err != nil {
				log.Fatal(err)
			}
		}(u)
	}
	wg.Wait()
	services, _ := app.OnServe.Services()
	fmt.Println("published services:")
	for _, s := range services {
		fmt.Printf("  %-18s owner=%s\n", s.ServiceName, s.Owner)
	}

	// Everyone invokes everyone's service.
	type call struct{ user, service string }
	var calls []call
	for _, u := range users {
		for _, s := range services {
			calls = append(calls, call{u, s.ServiceName})
		}
	}
	results := make([]string, len(calls))
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c call) {
			defer wg.Done()
			proxy, err := wsclient.ImportURL(app.BaseURL+"/services/"+c.service, user)
			if err != nil {
				log.Fatal(err)
			}
			ticket, err := proxy.Invoke("execute", map[string]string{"caller": c.user})
			if err != nil {
				log.Fatal(err)
			}
			out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
			if err != nil {
				log.Fatal(err)
			}
			results[i] = fmt.Sprintf("%s invoked %-18s -> %s", c.user, c.service, strings.TrimSpace(out))
		}(i, c)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(" ", r)
	}

	// Each job ran under its service owner's Grid identity.
	fmt.Println("\ngrid accounting (jobs per identity):")
	perOwner := map[string]int{}
	for _, inv := range app.OnServe.Invocations() {
		job, err := env.Grid.Job(inv.JobID)
		if err == nil {
			perOwner[job.Desc.Owner]++
		}
	}
	for owner, n := range perOwner {
		fmt.Printf("  %-24s %d jobs\n", owner, n)
	}
}
