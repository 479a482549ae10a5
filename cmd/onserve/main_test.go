package main

import (
	"os"
	"path/filepath"
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

// TestKeysFileTurnsTenancyOn: a keys file alone enforces the control
// plane, for one appliance and for a fleet alike, since both boot the
// resolved configuration; there is no separate switch to forget.
func TestKeysFileTurnsTenancyOn(t *testing.T) {
	keys := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keys, []byte(`{"keys":[{"key":"acme-secret","owner":"acme"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-keys-file", keys},
		{"-fleet", "2", "-keys-file", keys},
		{"-profile", "production", "-keys-file", keys},
	} {
		opts, err := parseFlags(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if tc := opts.appliance.Tenancy; tc == nil || len(tc.Keys) != 1 || tc.Keys[0].Owner != "acme" {
			t.Fatalf("%v: tenancy %+v, want the keys file's", args, tc)
		}
	}
	if opts, err := parseFlags(nil); err != nil || opts.appliance.Tenancy != nil {
		t.Fatalf("no keys file: tenancy %+v, %v", opts.appliance.Tenancy, err)
	}
	if _, err := parseFlags([]string{"-keys-file", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("a missing keys file was accepted")
	}
	if _, err := parseFlags([]string{"-tenancy", "-keys-file", keys}); err == nil {
		t.Fatal("-tenancy survived beside -keys-file")
	}
}
