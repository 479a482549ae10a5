package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/jsdl"
)

// Failure injection: the middleware must degrade with useful errors, not
// hangs, when the substrates misbehave.

func TestInvokeWhenAllSitesDraining(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	for _, name := range f.env.Grid.SiteNames() {
		site, _ := f.env.Grid.Site(name)
		site.Drain()
	}
	_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if err == nil || !strings.Contains(err.Error(), "submit") {
		t.Fatalf("got %v", err)
	}
}

func TestInvokeAfterExecutableDeletedFromDB(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	// Pull the record out from under the deployed service.
	if err := f.parts.DB.Table(ExecutablesTable).Delete("MontecarloService"); err != nil {
		t.Fatal(err)
	}
	_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if !errors.Is(err, ErrNoSuchService) {
		t.Fatalf("got %v", err)
	}
}

func TestInvokeWithRevokedMyProxyCredential(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	// alice rotates her MyProxy passphrase; the appliance's stored logon
	// is now stale.
	f.ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "stale"})
	_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if err == nil || !strings.Contains(err.Error(), "authenticate") {
		t.Fatalf("got %v", err)
	}
}

func TestInvokeWithGridDown(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	f.env.Close() // the whole grid vanishes
	_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if err == nil {
		t.Fatal("invoke succeeded against a dead grid")
	}
}

func TestStagedFileVanishesBeforeRun(t *testing.T) {
	// Occupy the only slot, submit a second job, then delete its staged
	// executable before it can start: the grid job must fail cleanly and
	// the invocation must follow.
	f := newFixture(t, nil)
	f.uploadDemo(t)
	inv1, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if err != nil {
		t.Fatal(err)
	}
	site, _ := f.env.Grid.Site(inv1.Site)
	job1, _ := f.env.Grid.Job(inv1.JobID)

	// Saturate the site with effectively endless hogs so the next job
	// queues behind them (cancelled at the end of the test).
	hogSrc := "compute 23h\n"
	site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte(hogSrc))
	var hogs []*gridsim.Job
	for site.Stats().FreeSlots > 0 {
		j, err := site.Submit(jsdlFor("hog.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		hogs = append(hogs, j)
	}
	defer func() {
		for _, h := range hogs {
			site.Cancel(h.ID)
		}
	}()
	inv2, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "2"})
	if err != nil {
		// The broker may reject if every site saturated; nothing to test.
		t.Skipf("invocation rejected: %v", err)
	}
	if inv2.Site != inv1.Site {
		t.Skip("broker picked an unsaturated sibling; vanish path not exercised")
	}
	job2, err := f.env.Grid.Job(inv2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if job2.State() != gridsim.Queued {
		t.Skip("job dispatched before the file could vanish")
	}
	// Queued behind the hogs: remove its staged file, then release slots.
	site.Store().Delete("/O=Repro/CN=alice", "MontecarloService.gsh")
	for _, h := range hogs {
		site.Cancel(h.ID)
	}
	<-inv1.DoneChan()
	<-job1.Done()
	<-inv2.DoneChan()
	if inv2.State() == InvDone {
		t.Fatal("job ran without its staged executable")
	}
	if !strings.Contains(inv2.Message(), "stage-in vanished") {
		t.Fatalf("message %q", inv2.Message())
	}
}

func jsdlFor(exe string) jsdl.Description {
	return jsdl.Description{Owner: "/O=Repro/CN=alice", Executable: exe}
}

func TestWatchdogCancelRace(t *testing.T) {
	// Cancel and watchdog racing on the same invocation must settle on
	// exactly one terminal state and never hang.
	f := newFixture(t, func(cfg *Config) {
		cfg.InvocationTimeout = 15 * time.Second
		cfg.PollInterval = 2 * time.Second
	})
	if _, err := f.ons.UploadAndGenerate("alice", "racy.gsh", "", nil, []byte("compute 10h\n")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		inv, err := f.ons.Invoke("RacyService", nil)
		if err != nil {
			t.Fatal(err)
		}
		go f.ons.CancelInvocation(inv.Ticket)
		select {
		case <-inv.DoneChan():
		case <-time.After(10 * time.Second):
			t.Fatal("invocation hung under cancel/watchdog race")
		}
		st := inv.State()
		if st != InvCancelled && st != InvKilled {
			t.Fatalf("state %s", st)
		}
	}
}
