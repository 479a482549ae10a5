package cyberaide

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/jsdl"
)

func TestReplicateBetweenSites(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := newWorld(t)
		sess, err := w.agent.Authenticate("alice", "pw", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		program := []byte("echo replicated\n")
		if _, err := w.agent.Upload(sess.ID, "siteA", "r.gsh", program); err != nil {
			t.Fatal(err)
		}
		if _, err := w.agent.Replicate(sess.ID, "siteA", "siteB", "r.gsh"); err != nil {
			t.Fatal(err)
		}
		// The file is now runnable at siteB without another upload.
		jobID, err := w.agent.Submit(sess.ID, &jsdl.Description{Executable: "r.gsh", Site: "siteB"})
		if err != nil {
			t.Fatal(err)
		}
		job, err := w.grid.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st, err := w.agent.Status(sess.ID, jobID); err != nil || st.State != "DONE" {
			t.Fatalf("replicated job %v, %v", st, err)
		}
		out, _ := w.agent.Output(sess.ID, jobID)
		if out != "replicated\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestReplicateErrors(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := newWorld(t)
		sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
		if _, err := w.agent.Replicate(sess.ID, "atlantis", "siteB", "f"); !errors.Is(err, ErrUnknownSite) {
			t.Fatalf("got %v", err)
		}
		if _, err := w.agent.Replicate(sess.ID, "siteA", "atlantis", "f"); !errors.Is(err, ErrUnknownSite) {
			t.Fatalf("got %v", err)
		}
		if _, err := w.agent.Replicate("ghost", "siteA", "siteB", "f"); !errors.Is(err, ErrNoSession) {
			t.Fatalf("got %v", err)
		}
		if _, err := w.agent.Replicate(sess.ID, "siteA", "siteB", "never-staged.gsh"); err == nil {
			t.Fatal("replicating a missing file succeeded")
		}
	})
}
