package jsdl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func validDesc() Description {
	return Description{
		Name:       "montecarlo-run",
		Owner:      "/O=Repro/CN=alice",
		Executable: "montecarlo.gsh",
		Arguments:  map[string]string{"samples": "10000", "seed": "7"},
		Site:       "ncsa-abe",
		CPUs:       4,
		WallTime:   30 * time.Minute,
		StageIn:    []string{"input.dat"},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	d := validDesc()
	doc, err := Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(doc)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, doc)
	}
	if got.Name != d.Name || got.Owner != d.Owner || got.Executable != d.Executable {
		t.Fatalf("identity lost: %+v", got)
	}
	if got.Site != d.Site || got.CPUs != d.CPUs || got.WallTime != d.WallTime {
		t.Fatalf("resources lost: %+v", got)
	}
	if got.Arguments["samples"] != "10000" || got.Arguments["seed"] != "7" {
		t.Fatalf("arguments lost: %+v", got.Arguments)
	}
	if len(got.StageIn) != 1 || got.StageIn[0] != "input.dat" {
		t.Fatalf("stage-in lost: %+v", got.StageIn)
	}
}

func TestNormalizeDefaultsCPUs(t *testing.T) {
	d := Description{Owner: "o", Executable: "e"}
	d.Normalize()
	if d.CPUs != 1 {
		t.Fatalf("cpus %d", d.CPUs)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Description)
		want   string
	}{
		{func(d *Description) { d.Executable = "" }, "executable required"},
		{func(d *Description) { d.Owner = "" }, "owner required"},
		{func(d *Description) { d.CPUs = -1 }, "cpus"},
		{func(d *Description) { d.CPUs = MaxCPUs + 1 }, "cpus"},
		{func(d *Description) { d.WallTime = -time.Second }, "walltime"},
		{func(d *Description) { d.WallTime = MaxWallTime + 1 }, "walltime"},
		{func(d *Description) {
			d.Arguments = map[string]string{"": "x"}
		}, "empty argument name"},
	}
	for i, tc := range cases {
		d := validDesc()
		tc.mutate(&d)
		err := d.Validate()
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err %v", i, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %q, want %q", i, err, tc.want)
		}
	}
}

func TestValidateTooManyArgs(t *testing.T) {
	d := validDesc()
	d.Arguments = map[string]string{}
	for i := 0; i < MaxArgs+1; i++ {
		d.Arguments[strings.Repeat("a", i+1)] = "v"
	}
	if err := d.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v", err)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	d := Description{}
	if _, err := Marshal(&d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v", err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, src := range []string{"", "<nope/>", "not xml"} {
		if _, err := Unmarshal([]byte(src)); !errors.Is(err, ErrNotJSDL) {
			t.Errorf("Unmarshal(%q) err %v", src, err)
		}
	}
}

// Property: marshal/unmarshal preserves arbitrary argument maps (with
// XML-safe keys, and values of XML characters: a document cannot hold a
// control character, U+FFFE or U+FFFF, and the encoder writes U+FFFD).
func TestPropertyArgumentsRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		d := Description{Owner: "o", Executable: "e.gsh", CPUs: 1}
		d.Arguments = map[string]string{}
		for i, v := range vals {
			if i >= 20 {
				break
			}
			clean := strings.Map(func(r rune) rune {
				if r < 0x20 || r == 0xFFFE || r == 0xFFFF {
					return -1
				}
				return r
			}, v)
			d.Arguments["arg"+string(rune('a'+i))] = clean
		}
		doc, err := Marshal(&d)
		if err != nil {
			return false
		}
		got, err := Unmarshal(doc)
		if err != nil {
			return false
		}
		if len(got.Arguments) != len(d.Arguments) {
			return false
		}
		for k, v := range d.Arguments {
			if got.Arguments[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
