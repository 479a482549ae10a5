package core

import (
	"encoding/base64"
	"errors"
	"testing"

	"repro/internal/bubble"
	"repro/internal/soap"
)

func TestOutputFileThroughGeneratedService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "artifacts.gsh", "", nil,
			[]byte("write data.bin 64\necho done\n")); err != nil {
			t.Fatal(err)
		}
		hs, c := newSOAPServer(t, f.parts.Container)
		url := hs + "/services/ArtifactsService"
		ns := "urn:onserve:ArtifactsService"
		ticket, err := c.Call(url, ns, "execute", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(url, ns, "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil); err != nil {
			t.Fatal(err)
		}
		enc, err := c.Call(url, ns, "outputFile", []soap.Param{
			{Name: "ticket", Value: ticket}, {Name: "name", Value: "data.bin"},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := base64.StdEncoding.DecodeString(enc)
		if err != nil || len(data) != 64 {
			t.Fatalf("artifact %d bytes err %v", len(data), err)
		}
		// Missing artifact faults.
		_, err = c.Call(url, ns, "outputFile", []soap.Param{
			{Name: "ticket", Value: ticket}, {Name: "name", Value: "ghost.bin"},
		}, nil)
		var fault *soap.Fault
		if !errors.As(err, &fault) {
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
