package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
)

// Failure injection: the middleware must degrade with useful errors, not
// hangs, when the substrates misbehave.

func TestInvokeWhenAllSitesDraining(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
	})
}

func TestInvokeAfterExecutableDeletedFromDB(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
	})
}

func TestInvokeWithRevokedMyProxyCredential(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		// alice rotates her MyProxy passphrase; the appliance's stored logon
		// is now stale.
		f.ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "stale"})
		_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
		if err == nil || !strings.Contains(err.Error(), "authenticate") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeWithGridDown(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		f.env.Close() // the whole grid vanishes
		_, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
		if err == nil {
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
		var hogs []*gridsim.Job
		for _, name := range f.env.Grid.SiteNames() {
			site, _ := f.env.Grid.Site(name)
			site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte("compute 23h\n"))
			for site.Stats().FreeSlots > 0 {
				j, err := site.Submit(jsdlFor("hog.gsh"))
				if err != nil {
					t.Fatal(err)
				}
				hogs = append(hogs, j)
			}
		}
		cancelHogs := func() {
			for _, h := range hogs {
				site, _ := f.env.Grid.Site(h.Site)
				site.Cancel(h.ID)
			}
		}
		defer cancelHogs()
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "2"})
		if err != nil {
			t.Fatal(err)
		}
		job, err := f.env.Grid.Job(inv.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if job.State() != gridsim.Queued {
			t.Fatalf("job %s with every slot taken, want QUEUED", job.State())
		}
		// Queued behind the hogs: remove its staged file, then release slots.
		site, _ := f.env.Grid.Site(inv.Site)
		site.Store().Delete("/O=Repro/CN=alice", "MontecarloService.gsh")
		cancelHogs()
		<-inv.DoneChan()
		if inv.State() == InvDone {
			t.Fatal("job ran without its staged executable")
		}
		if !strings.Contains(inv.Message(), "stage-in vanished") {
			t.Fatalf("message %q", inv.Message())
		}
	})
}

func jsdlFor(exe string) jsdl.Description {
	return jsdl.Description{Owner: "/O=Repro/CN=alice", Executable: exe}
}

func TestWatchdogCancelRace(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
			<-inv.DoneChan()
			st := inv.State()
			if st != InvCancelled && st != InvKilled {
				t.Fatalf("state %s", st)
			}
		}
	})
}
