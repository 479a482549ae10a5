package repro

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/soap"
	"repro/internal/tenant"
)

// TestErrorCodesAcrossDoors drives each code of core's error table
// through both doors of one appliance and of a two-member fleet. The JSON
// door answers the row's status with the {code, error} envelope; the SOAP
// door answers 500 with a fault that blames the caller (Client) only for a
// 4xx cause and carries the code as its detail, unless the tenancy guard
// in front of the container refused the caller first, with the envelope.
// An upload has no SOAP call: its row drives the JSON door alone.
func TestErrorCodesAcrossDoors(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		grid := proxyGrid(t, f)
		cfg := appliance.Paper()
		cfg.Endpoints, cfg.GridDial, cfg.Trace = grid.endpoints, f.Net.DialContext, f.Trace
		cfg.PollInterval, cfg.InvocationTimeout = 2*time.Second, time.Hour
		cfg.Tenancy = &tenant.Config{
			Owners: []tenant.OwnerConfig{
				{Name: "probe", Policy: tenant.Policy{Deny: []tenant.Rule{{Verbs: []string{"invoke"}, Services: []string{"GreetService"}}}}},
				{Name: "meter", Rates: map[string]float64{"invoke": 0.000001}, Bursts: map[string]float64{"invoke": 1}},
				{Name: "busy", MaxInFlight: 1},
			},
			Keys: []tenant.KeyConfig{
				{Key: "alice-key", Owner: "alice"}, {Key: "probe-key", Owner: "probe"},
				{Key: "meter-key", Owner: "meter"}, {Key: "busy-key", Owner: "busy"},
			},
		}
		bob := core.UserAuth{MyProxyUser: "bob", Passphrase: "pw"}

		// The appliance, on a database that outlives a reboot: bob publishes
		// OrphanService and is not registered again after it.
		img, err := f.Build(func(c *appliance.Config) { *c = cfg; c.DBDir = t.TempDir() })
		if err != nil {
			t.Fatal(err)
		}
		f.Image = img
		f.Reboot(t)
		f.App.OnServe.RegisterUser("bob", bob)
		one := &door{name: "appliance", t: t, f: f, base: f.App.BaseURL}
		one.publish()
		f.Reboot(t)
		if _, err := f.App.OnServe.RedeployAll(); err != nil {
			t.Fatal(err)
		}
		one.base = f.App.BaseURL

		// The fleet: OrphanService's holder comes back without bob.
		fleetCfg := cfg
		fleetCfg.DBDir = t.TempDir()
		gw, err := gateway.Boot(gateway.Config{Fleet: 2, Net: f.Net, Trace: f.Trace, Appliance: fleetCfg}, f.Net.Listen())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Shutdown() })
		gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
		for _, app := range gw.Fleet() {
			app.OnServe.RegisterUser("bob", bob)
		}
		fleet := &door{name: "fleet-2", t: t, f: f, base: gw.BaseURL}
		fleet.publish()
		holder := gw.PrimaryFor("OrphanService")
		if err := gw.Kill(holder); err != nil {
			t.Fatal(err)
		}
		if err := gw.Rejoin(holder); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.Fleet()[holder].OnServe.RedeployAll(); err != nil {
			t.Fatal(err)
		}

		const ghost = "inv-1-GreetService-000000000000"
		rows := []struct {
			code    string
			status  int
			guarded bool // the SOAP door's guard answers, before the container
			// drive sends the JSON door's request and the SOAP door's call,
			// if there is one.
			drive func(d *door) (jsonReply, soapReply appliancetest.Reply)
		}{
			{"not_found", 404, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				return d.do("GET", "/api/status?ticket="+ghost, "", "", ""),
					d.soap("GreetService", "status", "alice-key", soap.Param{Name: "ticket", Value: ghost})
			}},
			{"no_such_file", 404, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				ticket := d.finished()
				return d.do("GET", "/api/outfile?ticket="+ticket+"&name=missing.dat", "", "", ""),
					d.soap("GreetService", "outputFile", "alice-key", soap.Param{Name: "ticket", Value: ticket}, soap.Param{Name: "name", Value: "missing.dat"})
			}},
			// A name is taken until a delete, its owner's own upload included
			// (bob, refused by another owner, is TestRefusedUploadKeepsTheOwnersService).
			{"name_taken", 409, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				ctype, form := appliancetest.UploadForm("greet.gsh", "echo not greet\n")
				return d.do("POST", "/upload", "alice-key", ctype, form), appliancetest.Reply{}
			}},
			{"bad_request", 400, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				return d.invoke("OrphanService", "alice-key"), d.soap("OrphanService", "execute", "alice-key")
			}},
			{"unauthorized", 401, true, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				return d.invoke("GreetService", ""), d.soap("GreetService", "execute", "")
			}},
			{"forbidden", 403, true, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				return d.invoke("GreetService", "probe-key"), d.soap("GreetService", "execute", "probe-key")
			}},
			{"rate_limited", 429, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				d.invoke("GreetService", "meter-key") // the bucket's one token
				return d.invoke("GreetService", "meter-key"), d.soap("GreetService", "execute", "meter-key")
			}},
			{"quota_exceeded", 429, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				d.invoke("SlowService", "busy-key") // the owner's one slot, for ten minutes
				return d.invoke("SlowService", "busy-key"), d.soap("SlowService", "execute", "busy-key")
			}},
			// The grid's failure, not the caller's: the output file's fetch
			// fails in transport.
			{"internal", 500, false, func(d *door) (appliancetest.Reply, appliancetest.Reply) {
				ticket := d.finished()
				grid.cutOutfile.Store(true)
				defer grid.cutOutfile.Store(false)
				return d.do("GET", "/api/outfile?ticket="+ticket+"&name=result.dat", "", "", ""),
					d.soap("GreetService", "outputFile", "alice-key", soap.Param{Name: "ticket", Value: ticket}, soap.Param{Name: "name", Value: "result.dat"})
			}},
		}
		for _, row := range rows {
			for _, d := range []*door{one, fleet} {
				jsonReply, soapReply := row.drive(d)
				if got := envelopeCode(jsonReply); jsonReply.Status != row.status || got != row.code {
					t.Errorf("%s, %s, JSON door: %d %q (%.200s), want %d %q", row.code, d.name, jsonReply.Status, got, jsonReply.Body, row.status, row.code)
				}
				if soapReply.Status == 0 {
					continue
				}
				if row.guarded {
					if got := envelopeCode(soapReply); soapReply.Status != row.status || got != row.code {
						t.Errorf("%s, %s, SOAP door's guard: %d %q (%.200s), want %d %q", row.code, d.name, soapReply.Status, got, soapReply.Body, row.status, row.code)
					}
					continue
				}
				faultcode := soap.FaultClient
				if row.status >= 500 {
					faultcode = soap.FaultServer
				}
				_, err := soap.Decode([]byte(soapReply.Body))
				fault, _ := err.(*soap.Fault)
				if soapReply.Status != http.StatusInternalServerError || fault == nil || fault.Code != faultcode || fault.Detail != row.code {
					t.Errorf("%s, %s, SOAP door: %d %+v (%.200s), want 500 with a %s fault whose detail is %q", row.code, d.name, soapReply.Status, fault, soapReply.Body, faultcode, row.code)
				}
			}
		}
	})
}

// envelopeCode is the code of an error envelope, "" when the body is not
// one: code first, then error.
func envelopeCode(r appliancetest.Reply) string {
	var env struct{ Code, Error string }
	if json.Unmarshal([]byte(r.Body), &env) != nil || !strings.HasPrefix(r.Body, `{"code":"`+env.Code+`","error":`) {
		return ""
	}
	return env.Code
}

// door is the user's side of one front door: an appliance's, or a fleet's.
type door struct {
	name string
	t    *testing.T
	f    *appliancetest.Fixture
	base string
}

func (d *door) do(method, path, key, ctype, body string) appliancetest.Reply {
	return d.f.Do(d.t, appliancetest.Route{Method: method, Path: d.base + path, Key: key, Type: ctype, Body: body})
}

// publish uploads GreetService and SlowService as alice, and
// OrphanService as bob.
func (d *door) publish() {
	for _, up := range []struct{ file, program, user string }{
		{"greet.gsh", "echo hello\nwrite result.dat 64\n", "alice"},
		{"slow.gsh", "compute 10m\necho never\n", "alice"},
		{"orphan.gsh", "echo orphan\n", "bob"},
	} {
		ctype, form := appliancetest.UploadForm(up.file, up.program, "user", up.user)
		if r := d.do("POST", "/upload", "alice-key", ctype, form); r.Status != http.StatusOK {
			d.t.Fatalf("upload of %s: %d %s", up.file, r.Status, r.Body)
		}
	}
}

func (d *door) invoke(service, key string) appliancetest.Reply {
	return d.do("POST", "/api/invoke", key, "application/json", `{"service":"`+service+`","args":{}}`)
}

// finished runs GreetService to its end and returns the ticket.
func (d *door) finished() string {
	var reply struct{ Ticket string }
	json.Unmarshal([]byte(d.invoke("GreetService", "alice-key").Body), &reply)
	if r := d.do("GET", "/api/wait?ticket="+reply.Ticket, "", "", ""); r.Status != http.StatusOK || !strings.Contains(r.Body, `"DONE"`) {
		d.t.Fatalf("GreetService: %d %s", r.Status, r.Body)
	}
	return reply.Ticket
}

// soap calls op of service through the SOAP door as key's owner.
func (d *door) soap(service, op, key string, params ...soap.Param) appliancetest.Reply {
	env, err := soap.Encode(&soap.Message{Namespace: "urn:onserve:" + service, Operation: op, Params: params})
	if err != nil {
		d.t.Fatal(err)
	}
	return d.do("POST", "/services/"+service, key, "text/xml; charset=utf-8", string(env))
}

// TestRefusedUploadKeepsTheOwnersService: alice publishes montecarlo.gsh,
// and bob's upload of the same name is refused with 409 name_taken before
// anything of his is stored. Alice's service is untouched: both doors
// still run her program, her row still names her, and its WSDL answers.
func TestRefusedUploadKeepsTheOwnersService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		f.App.OnServe.RegisterUser("bob", core.UserAuth{MyProxyUser: "bob", Passphrase: "pw"})
		d := &door{name: "appliance", t: t, f: f, base: f.App.BaseURL}
		for _, up := range []struct {
			user, program string
			status        int
		}{
			{"alice", "echo alice's montecarlo\n", http.StatusOK},
			{"bob", "echo bob's montecarlo\n", http.StatusConflict},
			{"alice", "echo alice again\n", http.StatusConflict},
		} {
			ctype, form := appliancetest.UploadForm("montecarlo.gsh", up.program, "user", up.user)
			r := d.do("POST", "/upload", "", ctype, form)
			if r.Status != up.status || (up.status == http.StatusConflict && envelopeCode(r) != "name_taken") {
				t.Errorf("%s's upload: %d %s, want %d", up.user, r.Status, r.Body, up.status)
			}
		}

		var reply struct{ Ticket string }
		json.Unmarshal([]byte(d.invoke("MontecarloService", "").Body), &reply)
		if r := d.do("GET", "/api/wait?ticket="+reply.Ticket, "", "", ""); !strings.Contains(r.Body, "alice's montecarlo") {
			t.Errorf("JSON door: %d %s, want alice's program", r.Status, r.Body)
		}
		c := soap.Client{HTTP: f.Web}
		url := f.App.BaseURL + "/services/MontecarloService"
		ticket, err := c.Call(url, "urn:onserve:MontecarloService", "execute", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Call(url, "urn:onserve:MontecarloService", "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil)
		if err != nil || !strings.Contains(out, "alice's montecarlo") {
			t.Errorf("SOAP door: %q, %v, want alice's program", out, err)
		}
		if info, err := f.App.OnServe.ServiceInfo("MontecarloService"); err != nil || info.Owner != "alice" {
			t.Errorf("stored row: %+v, %v, want alice's", info, err)
		}
		if r := d.do("GET", "/services/MontecarloService?wsdl", "", "", ""); r.Status != http.StatusOK || !strings.Contains(r.Body, "MontecarloService") {
			t.Errorf("?wsdl: %d %.200s", r.Status, r.Body)
		}
	})
}
