package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gram"
	"repro/internal/gridftp"
	"repro/internal/hop"
	"repro/internal/jsdl"
	"repro/internal/myproxy"
	"repro/internal/xsec"
)

// BaselineRow compares one access model.
type BaselineRow struct {
	Model     string  // "jse-direct" or "onserve-saas"
	LatencyS  float64 // virtual seconds for one run
	WANBytes  float64 // bytes that crossed the WAN
	UserSteps int     // protocol interactions the *user* must script
}

// BaselineResult contrasts raw JSE access with the SaaS path.
type BaselineResult struct {
	Rows  []BaselineRow
	Notes []string
}

// Render prints the comparison.
func (r *BaselineResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== baseline: raw JSE access vs onServe SaaS ==\n")
	sb.WriteString("model         latency_s   wan_kb   user_steps\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-13s %9.1f %8.1f %12d\n",
			row.Model, row.LatencyS, row.WANBytes/1024, row.UserSteps)
	}
	return sb.String() + renderNotes(r.Notes)
}

// BaselineJSE quantifies the paper's motivation: accessing a production
// Grid directly means hand-scripting the JSE model (MyProxy logon,
// GridFTP staging, job description, GRAM submission, polling), while the
// SaaS model reduces the user's side to one Web-service call. The
// comparison runs the identical job both ways over the same shaped WAN
// and reports the latency, WAN traffic, and the number of protocol
// interactions the user must implement themselves.
func BaselineJSE(opts Options, fileKB int) (*BaselineResult, error) {
	fileKB = orDefault(fileKB, 256)
	program := padded("compute 2s\necho baseline done\n", fileKB<<10)

	res := &BaselineResult{Notes: []string{
		"identical executable and job, identical ~85 KB/s WAN",
		"jse-direct: the user scripts logon, staging, jsdl, submission and polling",
		"onserve-saas: the user makes one execute call; the appliance does the JSE work",
		"user_steps counts distinct protocol interactions the user must implement",
	}}

	direct, err := baselineDirect(opts, program)
	if err != nil {
		return nil, err
	}
	saas, err := baselineSaaS(opts, program)
	if err != nil {
		return nil, err
	}
	res.Rows = []BaselineRow{
		{Model: "jse-direct", LatencyS: direct.seconds, WANBytes: direct.sum["net_out_total_b"] + direct.sum["net_in_total_b"], UserSteps: 6},
		{Model: "onserve-saas", LatencyS: saas.seconds, WANBytes: saas.sum["net_out_total_b"] + saas.sum["net_in_total_b"], UserSteps: 2},
	}
	return res, nil
}

// baselineDirect is the JSE model: the user's own client, on their own
// machine across the WAN, drives every grid protocol.
func baselineDirect(opts Options, program string) (measurement, error) {
	r, err := newRig(opts)
	if err != nil {
		return measurement{}, err
	}
	defer r.close()
	dial := r.uplink.DialContext
	uplink := hop.NewTransport(dial)
	return r.measure(func() error {
		// Step 1: MyProxy logon.
		mp := &myproxy.Client{Addr: r.env.MyProxyAddr, Dial: dial}
		proxy, err := mp.Get("alice", "pw", time.Hour)
		if err != nil {
			return fmt.Errorf("baseline: logon: %w", err)
		}
		// Step 2: choose a site and stage the executable via GridFTP.
		siteName := r.env.Grid.SiteNames()[0]
		ftp := &gridftp.Client{BaseURL: r.env.FTPURLs[siteName], Cred: proxy, Transport: uplink}
		if _, err := ftp.Put("baseline.gsh", []byte(program)); err != nil {
			return fmt.Errorf("baseline: stage: %w", err)
		}
		// Step 3: write the job description; Step 4: submit via GRAM. The
		// proxy speaks for alice, so the owner is the end-entity identity.
		gc := &gram.Client{BaseURL: r.env.GramURL, Cred: proxy, Transport: uplink}
		jobID, err := gc.Submit(&jsdl.Description{
			Owner: xsec.Identity(proxy.Chain), Executable: "baseline.gsh", Site: siteName,
		})
		if err != nil {
			return fmt.Errorf("baseline: submit: %w", err)
		}
		// Step 5: poll status; Step 6: fetch output.
		st, err := gc.WaitTerminal(jobID, r.clock, 9*time.Second, time.Hour)
		if err != nil || st.State != "DONE" {
			return fmt.Errorf("baseline: job %v: %v", st, err)
		}
		_, err = gc.Output(jobID)
		return err
	})
}

// baselineSaaS is the same job through onServe: one service invocation.
func baselineSaaS(opts Options, program string) (measurement, error) {
	r, err := newRig(opts)
	if err != nil {
		return measurement{}, err
	}
	defer r.close()
	svc, err := r.deploy("baseline.gsh", program)
	if err != nil {
		return measurement{}, err
	}
	return r.measure(func() error { _, err := svc.call(nil); return err })
}
