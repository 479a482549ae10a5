package main

import (
	"reflect"
	"testing"

	"repro/internal/appliance"
)

func TestProfileFlag(t *testing.T) {
	flagless, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := parseFlags([]string{"-profile", "paper"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flagless, paper) || !reflect.DeepEqual(flagless.appliance, appliance.Paper()) {
		t.Fatalf("no flags is not -profile paper:\n%+v\n%+v", flagless, paper)
	}
	prod, err := parseFlags([]string{"-profile", "production", "-db", "/var/lib/onserve"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prod.appliance, appliance.Production("/var/lib/onserve")) {
		t.Fatalf("-profile production -db: %+v", prod.appliance)
	}
	if _, err := parseFlags([]string{"-profile", "turbo"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := parseFlags([]string{"-push-events"}); err == nil {
		t.Fatal("a knob flag survived beside -profile")
	}
}
