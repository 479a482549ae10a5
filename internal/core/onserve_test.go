package core

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gridsim"
	"repro/internal/hop/hoptest"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wsdl"
)

func TestServiceNameFor(t *testing.T) {
	ok := map[string]string{
		"montecarlo.gsh":  "MontecarloService",
		"word-count.gsh":  "WordCountService",
		"my_app.v2.gsh":   "MyAppV2Service",
		"Already":         "AlreadyService",
		"nested name.gsh": "NestedNameService",
	}
	for in, want := range ok {
		got, err := ServiceNameFor(in)
		if err != nil || got != want {
			t.Errorf("ServiceNameFor(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "...", "bad/name.gsh", "ok?.gsh"} {
		if _, err := ServiceNameFor(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("ServiceNameFor(%q) err = %v", bad, err)
		}
	}
}

// TestTicketNamesItsService: a ticket carries its service's name, which
// TicketService alone reads back; every other string is refused. A ticket
// costs one allocation, and tickets sort in issue order whatever their
// services are called.
func TestTicketNamesItsService(t *testing.T) {
	for _, file := range []string{"monte.gsh", "Äpfel.gsh", "数据 v2.gsh"} {
		svc, err := ServiceNameFor(file)
		must(t, err)
		ticket := newTicket(7, svc)
		if got, ok := TicketService(ticket); !ok || got != svc {
			t.Errorf("TicketService(%q) = %q, %v; want %q", ticket, got, ok, svc)
		}
	}
	for _, bad := range []string{"", "inv-", "inv-000001-abcdef012345", "t-1", "inv-000001-S-abcdef01234",
		"inv-000001-S-abcdef0123456", "inv-000001-S-ABCDEF012345", "inv-00x001-S-abcdef012345",
		"inv--S-abcdef012345", "inv-000001--abcdef012345", "inv-000001-A-B-abcdef012345", "xinv-000001-S-abcdef012345"} {
		if got, ok := TicketService(bad); ok {
			t.Errorf("TicketService(%q) = %q, want refused", bad, got)
		}
	}
	// Under the race detector crypto/rand's buffer escapes, one more.
	if allocs := testing.AllocsPerRun(100, func() { newTicket(42, "MonteService") }); allocs != 1 && !raceEnabled {
		t.Errorf("newTicket allocates %.0f objects, want 1", allocs)
	}
	names := []string{"ZService", "AService", "MService", "数据V2Service"}
	var tickets []string
	for seq := 1; seq <= 1200; seq++ {
		tickets = append(tickets, newTicket(seq, names[seq%len(names)]))
	}
	if !sort.StringsAreSorted(tickets) {
		t.Error("tickets do not sort in issue order")
	}
}

func TestUploadAndGenerate(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		rec := f.uploadDemo(t)
		if rec.Name != "MontecarloService" || !strings.HasSuffix(rec.Endpoint, "/services/MontecarloService") {
			t.Fatalf("published %q at %q", rec.Name, rec.Endpoint)
		}
		// Deployed in the container with the full operation set.
		svc, ok := f.parts.Container.Lookup("MontecarloService")
		for _, op := range []string{"execute", "status", "output", "wait", "cancel"} {
			if !ok || svc.Def.Operation(op) == nil {
				t.Fatalf("operation %s missing (deployed: %v)", op, ok)
			}
		}
		// Stored in the database, discoverable through UDDI.
		if _, err := f.parts.DB.Table(ExecutablesTable).Stat("MontecarloService"); err != nil || len(f.parts.Registry.Find("Monte%")) != 1 {
			t.Fatalf("stored: %v; uddi find %v", err, f.parts.Registry.Find("Monte%"))
		}
		// Info reflects the upload.
		info, err := f.ons.ServiceInfo("MontecarloService")
		if err != nil || info.Owner != "alice" || len(info.Params) != 1 || info.Params[0].Name != "digits" {
			t.Fatalf("info %+v, %v", info, err)
		}
	})
}

func TestUploadValidation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		for _, c := range []struct {
			user, file, program string
			params              []wsdl.ParamDef
			want                error
		}{
			{"stranger", "x.gsh", "echo x\n", nil, ErrNoSuchUser},
			{"alice", "x.gsh", "not a program", nil, ErrBadProgram},
			{"alice", "x.gsh", "echo x\n", []wsdl.ParamDef{{Name: "p", Type: "blob"}}, ErrBadName},
			{"alice", "///", "echo x\n", nil, ErrBadName},
		} {
			if _, err := f.ons.UploadAndGenerate(c.user, c.file, "", c.params, []byte(c.program)); !errors.Is(err, c.want) {
				t.Fatalf("%+v: got %v", c, err)
			}
		}
	})
}

func TestDuplicateUploadRejected(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if _, err := f.ons.UploadAndGenerate("alice", "montecarlo.gsh", "again", nil, []byte("echo x\n")); err == nil {
			t.Fatal("duplicate service published")
		}
	})
}

func TestInvokeEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if out := f.demo(t, "314"); out != "pi=314\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestInvokeStagesAndRunsOnGrid(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		inv := f.invoke(t, "MontecarloService", digits("3"))
		if inv.Site == "" || inv.JobID == "" || !strings.HasPrefix(inv.Ticket, "inv-") {
			t.Fatalf("invocation %+v", inv)
		}
		job, err := f.env.Grid.Job(inv.JobID)
		must(t, err)
		ends(t, inv, InvDone)
		// The executable really was staged at the chosen site.
		if _, err := f.site(inv.Site).Store().Size(aliceDN, "MontecarloService.gsh"); job.State() != gridsim.Succeeded || err != nil {
			t.Fatalf("grid job %s, staged file: %v", job.State(), err)
		}
	})
}

func TestInvokeUnknownService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.Invoke("GhostService", nil); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeFailingJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		_, err := f.ons.ExecuteAndWait(f.publish(t, "boom.gsh", "fail exploded\n"), nil)
		if err == nil || !strings.Contains(err.Error(), "FAILED") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestTentativePollingAccumulatesOutput(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		inv := ends(t, f.invoke(t, f.publish(t, "ticker.gsh", "emit 2s 5 line\n"), nil), InvDone)
		if got := strings.Count(inv.Output(), "line"); got != 5 {
			t.Fatalf("final output has %d lines: %q", got, inv.Output())
		}
		// Polling wrote output snapshots to disk repeatedly.
		if f.rec.Total(metrics.DiskWrite) == 0 {
			t.Fatal("no poll-induced disk writes accounted")
		}
	})
}

func TestCancelInvocation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		inv := f.invoke(t, f.publish(t, "slow.gsh", "emit 2s 10000 t\n"), nil)
		must(t, f.ons.CancelInvocation(inv.Ticket))
		ends(t, inv, InvCancelled)
		if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
			t.Fatalf("cancel of terminal invocation: %v", err)
		}
		_, err := f.ons.Invocation("inv-xxxxxx-nope")
		if cerr := f.ons.CancelInvocation("inv-xxxxxx-nope"); !errors.Is(err, ErrNoTicket) || !errors.Is(cerr, ErrNoTicket) {
			t.Fatalf("unknown ticket: %v, cancel %v", err, cerr)
		}
	})
}

// poisonStaged overwrites the copy of the demo executable staged where
// the last invocation ran with a failing one.
func (f *fixture) poisonStaged(t *testing.T) (site string) {
	t.Helper()
	invs := f.ons.Invocations()
	site = invs[len(invs)-1].Site
	must(t, f.site(site).Store().Put(aliceDN, "MontecarloService.gsh", []byte("fail poisoned\n")))
	return site
}

func TestStagingCacheAvoidsReupload(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
		f.uploadDemo(t)
		f.demo(t, "1")
		// Poison the staged copy: if onServe re-uploads, it will be repaired;
		// with the cache it stays poisoned and the job fails.
		site := f.poisonStaged(t)
		inv2 := f.invoke(t, "MontecarloService", digits("2"))
		<-inv2.DoneChan()
		if inv2.Site == site && inv2.State() == InvDone {
			t.Fatal("staging cache did not prevent re-upload")
		}
	})
}

func TestNoStagingCacheReuploadsEveryTime(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil) // cache off: the paper's behaviour
		f.uploadDemo(t)
		f.demo(t, "1")
		f.poisonStaged(t)
		// Re-invoking repairs the staged copy because the file is re-uploaded.
		f.demo(t, "2")
	})
}

func TestStagingCacheReplicatesAcrossSites(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
		svc := f.publish(t, "rep.gsh", "compute 100ms\necho good copy\n")
		inv1 := ends(t, f.invoke(t, svc, nil), InvDone)
		// Corrupt the database copy: if the appliance re-uploads from the DB
		// the next job fails; replication from the already-staged good copy
		// succeeds.
		meta := map[string]string{"owner": "alice", "description": "", "file_name": "rep.gsh", "params": "null"}
		must(t, f.parts.DB.Table(ExecutablesTable).Put(svc, meta, []byte("fail poisoned-db\n")))
		// Saturate inv1's site so the broker must pick the sibling.
		fill(t, f.site(inv1.Site))
		inv2 := f.invoke(t, svc, nil)
		if inv2.Site == inv1.Site {
			t.Fatalf("placement picked the saturated site %s over its idle sibling", inv2.Site)
		}
		if out := ends(t, inv2, InvDone).Output(); out != "good copy\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestStageInDataService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		// A data-processing service: reads and processes a corpus the owner
		// stages separately.
		svc := f.publish(t, "wordcount.gsh", "process corpus.txt 1000\necho counted\n")
		must(t, f.ons.SetStageIn(svc, []string{"corpus.txt"}))
		info, err := f.ons.ServiceInfo(svc)
		if err != nil || len(info.StageIn) != 1 || info.StageIn[0] != "corpus.txt" {
			t.Fatalf("info %+v err %v", info, err)
		}
		// Without the data staged anywhere, invocation fails with a staging
		// error rather than a confusing runtime one.
		if _, err := f.ons.Invoke(svc, nil); err == nil || !strings.Contains(err.Error(), "not staged") {
			t.Fatalf("got %v", err)
		}
		// The owner stages the corpus; invocation now runs and reads it.
		must(t, f.env.StageEverywhere(aliceDN, "corpus.txt", []byte(strings.Repeat("word ", 10_000))))
		out, err := f.ons.ExecuteAndWait(svc, nil)
		if err != nil || !strings.Contains(out, "process corpus.txt: 50000 bytes") || !strings.Contains(out, "counted") {
			t.Fatalf("output %q, %v", out, err)
		}
	})
}

func TestStageInRetryFallsBackToStagedSite(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A submission rejected "not staged" sends the pipeline to the next
		// candidate: the site where the owner actually staged the data.
		f := newFixture(t, nil)
		svc := f.publish(t, "wordcount.gsh", "process corpus.txt 1000\necho counted\n")
		must(t, f.ons.SetStageIn(svc, []string{"corpus.txt"}))
		// Corpus staged at siteB only; both sites idle, so pickSites tries
		// siteA first and its submission is rejected "not staged".
		f.site("siteB").Store().Put(aliceDN, "corpus.txt", []byte(strings.Repeat("word ", 1000)))
		if inv := ends(t, f.invoke(t, svc, nil), InvDone); inv.Site != "siteB" {
			t.Fatalf("submitted to %s, want the staged-data fallback siteB", inv.Site)
		}
	})
}

func TestSetStageInValidation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if err := f.ons.SetStageIn("GhostService", []string{"x"}); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
		for _, bad := range [][]string{{""}, {"a/b"}, {"a,b"}} {
			if err := f.ons.SetStageIn("MontecarloService", bad); !errors.Is(err, ErrBadName) {
				t.Fatalf("SetStageIn(%v) err %v", bad, err)
			}
		}
	})
}

func TestDeleteService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		must(t, f.ons.DeleteService("MontecarloService"))
		if _, ok := f.parts.Container.Lookup("MontecarloService"); ok || f.parts.Registry.Len() != 0 {
			t.Fatalf("still deployed %v, %d uddi records", ok, f.parts.Registry.Len())
		}
		_, err := f.ons.ServiceInfo("MontecarloService")
		if derr := f.ons.DeleteService("MontecarloService"); !errors.Is(err, ErrNoSuchService) || !errors.Is(derr, ErrNoSuchService) {
			t.Fatalf("info of a deleted service: %v, double delete: %v", err, derr)
		}
		// Name is free for a fresh upload.
		f.uploadDemo(t)
	})
}

func TestServicesListing(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		f.publish(t, "wordcount.gsh", "echo 1\n")
		if list, err := f.ons.Services(); err != nil || len(list) != 2 {
			t.Fatalf("services %+v, %v", list, err)
		}
	})
}

func TestDoubleWriteAccounting(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		stock := newFixture(t, nil)
		stock.uploadDemo(t)
		direct := newFixture(t, func(cfg *Config) { cfg.DirectDBWrite = true })
		direct.uploadDemo(t)
		if s, d := stock.rec.Total(metrics.DiskWrite), direct.rec.Total(metrics.DiskWrite); s <= d {
			t.Fatalf("double-write path (%v) should write more than direct path (%v)", s, d)
		}
	})
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}, Parts{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewRejectsKnobsWithoutChunkedStaging(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Placement probes and stored-gzip shipping both ride the chunk
		// store; accepted without it they would be silently inert.
		f := newFixture(t, nil)
		for name, set := range map[string]func(*Config){
			"DataAwarePlacement": func(c *Config) { c.DataAwarePlacement = true },
			"WireCompression":    func(c *Config) { c.WireCompression = true },
		} {
			cfg := f.cfg
			set(&cfg)
			if _, err := New(cfg, f.parts); err == nil || !strings.Contains(err.Error(), "require ChunkedStaging") {
				t.Errorf("%s without ChunkedStaging: %v", name, err)
			}
			// Intervals left unset take their defaults.
			cfg.ChunkedStaging, cfg.PollInterval, cfg.InvocationTimeout = true, 0, 0
			if o, err := New(cfg, f.parts); err != nil || o.cfg.PollInterval != DefaultPollInterval || o.cfg.InvocationTimeout != DefaultInvocationTimeout {
				t.Errorf("%s with ChunkedStaging: %v, or an unset interval kept at 0", name, err)
			}
		}
	})
}

// watchdogOn is an onServe whose only part the watchdog reaches is an
// agent with no session, so its kill cancels nothing on any grid, and an
// invocation for it to watch.
func watchdogOn(timeout time.Duration) (*OnServe, *Invocation) {
	o := &OnServe{cfg: Config{InvocationTimeout: timeout}, parts: Parts{Agent: cyberaide.New(cyberaide.Options{})}}
	return o, &Invocation{state: InvRunning, done: make(chan struct{})}
}

func TestWatchdogStop(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		o, inv := watchdogOn(time.Hour)
		wd := o.armWatchdog(inv)
		wd.Stop()
		wd.Stop() // idempotent
		time.Sleep(2 * time.Hour)
		bubble.Wait()
		if st := inv.State(); st.Terminal() {
			t.Fatalf("a stopped watchdog ended the invocation %s", st)
		}
	})
}

func TestWatchdogFires(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		o, inv := watchdogOn(10 * time.Second)
		wd := o.armWatchdog(inv)
		time.Sleep(10*time.Second - 1)
		bubble.Wait()
		if inv.State().Terminal() {
			t.Fatal("watchdog fired before its deadline")
		}
		time.Sleep(1)
		bubble.Wait()
		if inv.State() != InvKilled || !strings.Contains(inv.Message(), "watchdog") {
			t.Fatalf("at its deadline: %s (%s), want KILLED by the watchdog", inv.State(), inv.Message())
		}
		if wd.Stop() {
			t.Fatal("a watchdog that fired could still be stopped")
		}
	})
}

// TestWatchdogStartsNoGoroutine: arming a watchdog parks no goroutine of
// its own; it is a timer until it fires or is stopped.
func TestWatchdogStartsNoGoroutine(t *testing.T) {
	o := &OnServe{cfg: Config{InvocationTimeout: time.Hour}}
	wd := o.armWatchdog(&Invocation{})
	defer wd.Stop()
	for _, g := range goroutines("created by repro/internal/core.(*OnServe).armWatchdog") {
		t.Fatalf("an armed watchdog parks a goroutine:\n%s", g)
	}
}

func TestWatchdogCancelRace(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Cancel and watchdog racing on the same invocation must settle on
		// exactly one terminal state and never hang.
		f := newFixture(t, func(cfg *Config) { cfg.InvocationTimeout = 15 * time.Second })
		svc := f.publish(t, "racy.gsh", "compute 10h\n")
		for range 5 {
			inv := f.invoke(t, svc, nil)
			go f.ons.CancelInvocation(inv.Ticket)
			<-inv.DoneChan()
			if st := inv.State(); st != InvCancelled && st != InvKilled {
				t.Fatalf("state %s", st)
			}
		}
	})
}

// soapDemo mounts the fixture's container on a server and returns a
// call of the demo service's operations.
func (f *fixture) soapDemo(t *testing.T, service string) func(op string, params ...soap.Param) (string, error) {
	hs, c := newSOAPServer(t, f.parts.Container)
	return func(op string, params ...soap.Param) (string, error) {
		return c.Call(hs+"/services/"+service, "urn:onserve:"+service, op, params, nil)
	}
}

func TestGeneratedServiceOverSOAP(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Full SaaS loop through the deployed SOAP service, as a remote
		// client would drive it.
		f := newFixture(t, nil)
		f.uploadDemo(t)
		call := f.soapDemo(t, "MontecarloService")
		ticket, err := call("execute", soap.Param{Name: "digits", Value: "42"})
		must(t, err)
		if out, err := call("wait", soap.Param{Name: "ticket", Value: ticket}); err != nil || out != "pi=42\n" {
			t.Fatalf("output %q, %v", out, err)
		}
		if st, err := call("status", soap.Param{Name: "ticket", Value: ticket}); err != nil || !strings.Contains(st, "DONE") {
			t.Fatalf("status %q err %v", st, err)
		}
	})
}

func TestGeneratedServiceRejectsBadArgs(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		_, err := f.soapDemo(t, "MontecarloService")("execute", soap.Param{Name: "digits", Value: "not-a-number"})
		if fault := (*soap.Fault)(nil); !errors.As(err, &fault) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestOutputFileThroughGeneratedService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		call := f.soapDemo(t, f.publish(t, "artifacts.gsh", "write data.bin 64\necho done\n"))
		ticket, err := call("execute")
		must(t, err)
		_, err = call("wait", soap.Param{Name: "ticket", Value: ticket})
		must(t, err)
		enc, err := call("outputFile", soap.Param{Name: "ticket", Value: ticket}, soap.Param{Name: "name", Value: "data.bin"})
		must(t, err)
		if data, err := base64.StdEncoding.DecodeString(enc); err != nil || len(data) != 64 {
			t.Fatalf("artifact %d bytes err %v", len(data), err)
		}
		// Missing artifact faults.
		_, err = call("outputFile", soap.Param{Name: "ticket", Value: ticket}, soap.Param{Name: "name", Value: "ghost.bin"})
		if fault := (*soap.Fault)(nil); !errors.As(err, &fault) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvocationOutputFileBadTicket(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.InvocationOutputFile("inv-000000-ffffffffffff", "x"); !errors.Is(err, ErrNoTicket) {
			t.Fatalf("got %v", err)
		}
	})
}

// Failure injection: the middleware must degrade with useful errors, not
// hangs, when the substrates misbehave.

// TestLostSubmitReplyRunsOnce: the grid accepts a submit whose reply
// never reaches the appliance. The appliance sends it again under the
// job's name, the gatekeeper answers with the job it already runs, and
// the invocation ends DONE with exactly one grid job, whichever collector
// follows it.
func TestLostSubmitReplyRunsOnce(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		for _, push := range []bool{false, true} {
			t.Run(fmt.Sprintf("push=%v", push), func(t *testing.T) {
				f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = push, push })
				svc := f.publish(t, "once.gsh", "echo once\n")
				f.grid.Add(&hoptest.Rule{Match: "/gram/submit", N: 1, Do: hoptest.Lose})
				inv, err := f.ons.Invoke(svc, nil)
				bubble.Wait()
				ran := 0
				for _, name := range f.env.Grid.SiteNames() {
					st := f.site(name).Stats()
					ran += st.Completed + st.Failed + st.Running + st.Queued
				}
				if err != nil {
					t.Fatalf("invocation failed (%v) while %d grid job(s) ran", err, ran)
				}
				if ends(t, inv, InvDone).Output() != "once\n" || ran != 1 {
					t.Fatalf("output %q from %d grid jobs, want one", inv.Output(), ran)
				}
				if _, err := f.env.Grid.Job(inv.JobID); err != nil {
					t.Fatalf("no grid job under the invocation's name %s: %v", inv.JobID, err)
				}
			})
		}
	})
}

// TestFailedSubmitLeavesNothing: a submit the grid refuses (a 4xx, not
// resent) or never hears (a broken connection, resent once) fails the
// invocation, and nothing of it stays behind: no ticket, no job held by a
// collector, no watchdog to fire, no collector goroutine.
func TestFailedSubmitLeavesNothing(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			push  bool
			do    hoptest.Action
			sends int64
		}{
			{"refused/poll", false, hoptest.Answer(http.StatusBadRequest, "gram: bad description"), 1},
			{"refused/push", true, hoptest.Answer(http.StatusBadRequest, "gram: bad description"), 1},
			{"unreachable/poll", false, hoptest.Fail, 2},
			{"unreachable/push", true, hoptest.Fail, 2},
		} {
			t.Run(tc.name, func(t *testing.T) {
				f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = tc.push, tc.push })
				svc := f.publish(t, "never.gsh", "echo never\n")
				submits, cancels := &hoptest.Rule{Match: "/gram/submit", Do: tc.do}, &hoptest.Rule{Match: "/gram/cancel"}
				f.grid.Add(submits, cancels)
				if _, err := f.ons.Invoke(svc, nil); err == nil {
					t.Fatal("invoke succeeded")
				}
				if n := submits.Hits.Load(); n != tc.sends {
					t.Errorf("%d submits sent, want %d", n, tc.sends)
				}
				if n := len(f.ons.Invocations()); n != 0 {
					t.Errorf("%d tickets left", n)
				}
				if tc.push {
					ec := f.ons.collect.(*eventCollector)
					ec.mu.Lock()
					if n := len(ec.workers); n != 0 {
						t.Errorf("%d stream workers left", n)
					}
					ec.mu.Unlock()
				}
				time.Sleep(f.cfg.InvocationTimeout + time.Minute)
				bubble.Wait()
				if n := cancels.Hits.Load(); n != 0 {
					t.Errorf("a watchdog fired: %d cancels", n)
				}
				if owned := collectorGoroutines(); len(owned) != 0 {
					t.Errorf("%d collector goroutines left", len(owned))
				}
			})
		}
	})
}

func TestInvokeWhenAllSitesDraining(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		for _, name := range f.env.Grid.SiteNames() {
			f.site(name).Drain()
		}
		if _, err := f.ons.Invoke("MontecarloService", digits("1")); err == nil || !strings.Contains(err.Error(), "submit") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeAfterExecutableDeletedFromDB(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		// Pull the record out from under the deployed service.
		must(t, f.parts.DB.Table(ExecutablesTable).Delete("MontecarloService"))
		if _, err := f.ons.Invoke("MontecarloService", digits("1")); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeWithRevokedMyProxyCredential(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		// alice rotates her MyProxy passphrase; the appliance's stored logon
		// is now stale.
		f.ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "stale"})
		if _, err := f.ons.Invoke("MontecarloService", digits("1")); err == nil || !strings.Contains(err.Error(), "authenticate") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeWithGridDown(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		f.env.Close() // the whole grid vanishes
		if _, err := f.ons.Invoke("MontecarloService", digits("1")); err == nil {
			t.Fatal("invoke succeeded against a dead grid")
		}
	})
}

func TestStagedFileVanishesBeforeRun(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Fill every slot of every site with effectively endless hogs, so the
		// invocation queues wherever it lands; then delete its staged
		// executable before it can start: the grid job must fail cleanly and
		// the invocation must follow.
		f := newFixture(t, nil)
		f.uploadDemo(t)
		var release []func()
		for _, name := range f.env.Grid.SiteNames() {
			release = append(release, fill(t, f.site(name)))
		}
		inv := f.invoke(t, "MontecarloService", digits("2"))
		if job, err := f.env.Grid.Job(inv.JobID); err != nil || job.State() != gridsim.Queued {
			t.Fatalf("job %v (%v) with every slot taken, want QUEUED", job, err)
		}
		// Queued behind the hogs: remove its staged file, then release slots.
		f.site(inv.Site).Store().Delete(aliceDN, "MontecarloService.gsh")
		for _, r := range release {
			r()
		}
		<-inv.DoneChan()
		if inv.State() == InvDone || !strings.Contains(inv.Message(), "stage-in vanished") {
			t.Fatalf("ended %s: %q, want the vanished stage-in", inv.State(), inv.Message())
		}
	})
}

// cachedSession is the ID of alice's cached grid session.
func (f *fixture) cachedSession() string {
	f.ons.mu.Lock()
	defer f.ons.mu.Unlock()
	return f.ons.sessions["alice"].id
}

func TestSessionCacheReusesSession(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		f.uploadDemo(t)
		for range 3 {
			f.demo(t, "1")
		}
		if n := f.parts.Agent.SessionCount(); n != 1 {
			t.Fatalf("agent holds %d sessions, want 1 reused session", n)
		}
	})
}

func TestStockAuthenticatesPerInvocation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil) // cache off: the paper's behaviour
		f.uploadDemo(t)
		f.demo(t, "1")
		f.demo(t, "1")
		if n := f.parts.Agent.Logons(); n != 2 {
			t.Fatalf("%d logons, want one fresh logon per invocation", n)
		}
		// ... and each is logged out when its invocation is over.
		waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
	})
}

func TestGridSessionExpiryReauthenticates(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		auth := UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
		id1, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || cached {
			t.Fatalf("first session id=%q cached=%v err=%v", id1, cached, err)
		}
		id2, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || !cached || id2 != id1 {
			t.Fatalf("second session id=%q cached=%v err=%v, want cached %q", id2, cached, err, id1)
		}
		// Age the cached entry past its expiry margin: the next call must
		// perform a fresh logon instead of handing out the stale session.
		f.ons.mu.Lock()
		f.ons.sessions["alice"].expiresAt = time.Now().Add(-time.Second)
		f.ons.mu.Unlock()
		id3, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || cached || f.parts.Agent.SessionCount() != 2 {
			t.Fatalf("expired session id=%q cached=%v err=%v beside %d agent sessions, want a fresh logon (2 sessions)", id3, cached, err, f.parts.Agent.SessionCount())
		}
	})
}

func TestSessionCacheInvalidatedOnAuthFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		f.uploadDemo(t)
		f.demo(t, "1")
		cachedID := f.cachedSession()
		// Kill the session behind the cache's back (an agent-side expiry): the
		// next invocation must invalidate the stale entry, re-authenticate and
		// still succeed.
		f.parts.Agent.Logout(cachedID)
		f.demo(t, "2")
		if f.cachedSession() == cachedID {
			t.Fatalf("stale session %q still cached", cachedID)
		}
	})
}

// TestDeadSessionIsLoggedOutOfTheAgent: a cached session whose proxy
// has expired under it is refused by the agent; the invocation that finds
// out re-authenticates, and the dead session leaves the agent's table
// with the cache entry instead of staying there for good. An invocation
// still in flight on the dead session ends as it did before — nothing
// can poll for it, so the watchdog kills it.
func TestDeadSessionIsLoggedOutOfTheAgent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.InvocationTimeout = cyberaide.DefaultProxyLifetime + time.Hour
			cfg.PollInterval = time.Minute // 720 polls, not 21600, until the proxy ends
		})
		f.uploadDemo(t)
		inFlight := f.invoke(t, f.publish(t, "long.gsh", "compute 12h30m\necho late\n"), nil)
		// The cache goes on believing in the session past the proxy's end.
		f.ons.mu.Lock()
		dead := f.ons.sessions["alice"].id
		f.ons.sessions["alice"].expiresAt = time.Now().Add(48 * time.Hour)
		f.ons.mu.Unlock()
		if dead != inFlight.sessionID || f.parts.Agent.SessionCount() != 1 {
			t.Fatalf("cached session %q, invocation's %q, %d agent sessions", dead, inFlight.sessionID, f.parts.Agent.SessionCount())
		}
		time.Sleep(cyberaide.DefaultProxyLifetime + time.Minute) // the proxy runs out under the job
		if _, err := f.parts.Agent.Session(dead); !errors.Is(err, cyberaide.ErrExpired) {
			t.Fatalf("the cached session past its proxy's lifetime: %v, want it expired", err)
		}
		f.demo(t, "2")
		if fresh := f.cachedSession(); fresh == dead {
			t.Fatalf("dead session %q still cached", dead)
		}
		if _, err := f.parts.Agent.Session(dead); !errors.Is(err, cyberaide.ErrNoSession) || f.parts.Agent.SessionCount() != 1 {
			t.Fatalf("dead session in the agent's table (%v) beside %d sessions, want the fresh one alone", err, f.parts.Agent.SessionCount())
		}
		if !strings.Contains(ends(t, inFlight, InvKilled).Message(), "watchdog") {
			t.Fatalf("in-flight invocation ended %q, want the watchdog's kill", inFlight.Message())
		}
	})
}

// setStats plants a scheduler snapshot taken at.
func (f *fixture) setStats(at time.Time, stats ...gridsim.SiteStats) {
	f.ons.mu.Lock()
	f.ons.stats, f.ons.statsAt = stats, at
	f.ons.mu.Unlock()
}

func TestStatsTTLServesCachedSnapshot(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		ttl := 10 * time.Minute
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = ttl })
		sessID, _, err := f.ons.gridSession("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"}, trace.SpanContext{})
		must(t, err)
		pick := func() []string {
			sites, err := f.ons.pickSites(sessID, heldExecutable(t, f.ons, "MontecarloService", nil), trace.SpanContext{}, nil)
			must(t, err)
			return sites
		}
		pick()
		// Plant a sentinel snapshot: while the TTL holds, pickSites must use
		// it rather than ask the gatekeeper again.
		f.setStats(time.Now(), gridsim.SiteStats{Name: "siteB", Slots: 8, FreeSlots: 8})
		if sites := pick(); len(sites) != 1 || sites[0] != "siteB" {
			t.Fatalf("pickSites ignored cached snapshot: %v", sites)
		}
		// Expire the snapshot: the next call refetches both sites.
		f.setStats(time.Now().Add(-2*ttl), gridsim.SiteStats{Name: "siteB", Slots: 8, FreeSlots: 8})
		if sites := pick(); len(sites) != 2 {
			t.Fatalf("expired snapshot not refreshed: %v", sites)
		}
	})
}

func TestConcurrentWarmInvocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache, cfg.StatsTTL = true, 30*time.Second })
		f.uploadDemo(t)
		const workers = 8
		burst(t, workers, func(int) error {
			_, err := f.ons.ExecuteAndWait("MontecarloService", digits("7"))
			return err
		})
		if n := f.parts.Agent.SessionCount(); n < 1 || n > workers {
			t.Fatalf("agent sessions %d", n)
		}
	})
}

func TestInvocationPruning(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.ons.retention = 2
		f.uploadDemo(t)
		var tickets []string
		for range 4 {
			inv := f.invoke(t, "MontecarloService", digits("1"))
			tickets = append(tickets, ends(t, inv, InvDone).Ticket)
		}
		waitFor(t, func() bool { return len(f.ons.Invocations()) == 2 })
		// The two oldest tickets are pruned, the two newest still resolve.
		for i, ticket := range tickets {
			if _, err := f.ons.Invocation(ticket); i < 2 && !errors.Is(err, ErrNoTicket) || i >= 2 && err != nil {
				t.Fatalf("ticket %d (%s): %v", i, ticket, err)
			}
		}
		// Monitoring still tallies all four through the retained counters.
		if got := f.ons.Monitoring().Invocations[string(InvDone)]; got != 4 {
			t.Fatalf("monitoring DONE = %d, want 4", got)
		}
	})
}

func TestReplicaSource(t *testing.T) {
	staged := map[string]map[string]string{
		"SvcService":   {"siteC": "sum1", "siteA": "sum2"},
		"OtherService": {"siteZ": "sum3"},
	}
	if got := replicaSource(staged["SvcService"]); got != "siteA" {
		t.Fatalf("replicaSource = %q, want deterministic smallest site siteA", got)
	}
	// An unstaged service, and one whose name merely prefixes a staged one.
	for _, svc := range []string{"MissingService", "Svc"} {
		if got := replicaSource(staged[svc]); got != "" {
			t.Fatalf("replicaSource(%s) = %q", svc, got)
		}
	}
}
