package jsdl

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"time"
)

// marshalEncodingXML is Marshal as it was before it wrote the document
// itself: xml.MarshalIndent over the reflected xmlDoc. It is the
// reference the direct writer must match byte for byte.
func marshalEncodingXML(d *Description) ([]byte, error) {
	dd := *d
	dd.Normalize()
	if err := dd.Validate(); err != nil {
		return nil, err
	}
	doc := xmlDoc{
		Name:       dd.Name,
		Owner:      dd.Owner,
		Executable: dd.Executable,
		Site:       dd.Site,
		CPUs:       dd.CPUs,
		WallTimeS:  int64(dd.WallTime / time.Second),
		StageIn:    dd.StageIn,
	}
	for _, name := range sortedKeys(dd.Arguments) {
		doc.Args = append(doc.Args, xmlArg{Name: name, Value: dd.Arguments[name]})
	}
	out, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

func checkMatchesEncodingXML(t *testing.T, d *Description) {
	t.Helper()
	want, wantErr := marshalEncodingXML(d)
	got, err := Marshal(d)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Marshal error %v, encoding/xml reference %v", err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal differs from the encoding/xml reference for %+v\ngot:\n%s\nwant:\n%s", *d, got, want)
	}
}

func TestMarshalMatchesEncodingXML(t *testing.T) {
	full := validDesc()
	cases := map[string]Description{
		"full":    full,
		"minimal": {Owner: "o", Executable: "e"},
		// encoding/xml opens a field's parent elements before it decides
		// the field is empty: these two keep their empty wrappers.
		"empty collections": {Owner: "o", Executable: "e", Arguments: map[string]string{}, StageIn: []string{}},
		"sub-second wall":   {Owner: "o", Executable: "e", WallTime: 999 * time.Millisecond},
		"limits":            {Owner: "o", Executable: "e", CPUs: MaxCPUs, WallTime: MaxWallTime},
		"markup and control characters": {
			Name: "n<&>\"'\t\n\r", Owner: "o=<a&b>", Executable: "e'\"",
			Arguments: map[string]string{"a\"<": "1\n", "b": "2 <x> &amp;", "\t": ""},
			Site:      "s>", StageIn: []string{"f&1", "", "f\r2"},
		},
		"invalid text": {
			Name: "nul\x00 bad-utf8\xff\xfe del\x7f", Owner: "� real replacement", Executable: "￾￿",
			Arguments: map[string]string{"k\x01": "v\x1f", "é": "日本語 \U0001F600"},
		},
		"invalid description": {Owner: "o"},
	}
	for name, d := range cases {
		d := d
		t.Run(name, func(t *testing.T) { checkMatchesEncodingXML(t, &d) })
	}
}

// FuzzMarshalMatchesEncodingXML lets the mutator look for a value the
// direct writer escapes, orders or indents differently from encoding/xml.
func FuzzMarshalMatchesEncodingXML(f *testing.F) {
	f.Add("montecarlo-run", "/O=Repro/CN=alice", "montecarlo.gsh", "samples", "10000", "seed\n7", "ncsa-abe", "input.dat,b.dat", 4, int64(30*time.Minute))
	f.Add("", "o", "e", "", "", "", "", "", 0, int64(0))
	f.Add("<&>\"'", "\x00\xff", "e\t", "k\"", "v\r", "k2=<v2>", "s&", ",", 1, int64(time.Second-1))
	f.Fuzz(func(t *testing.T, name, owner, exe, k1, v1, kv2, site, stageIn string, cpus int, wall int64) {
		d := Description{Name: name, Owner: owner, Executable: exe, Site: site, CPUs: cpus, WallTime: time.Duration(wall)}
		if k1 != "" || kv2 != "" {
			k2, v2, _ := strings.Cut(kv2, "=")
			d.Arguments = map[string]string{k1: v1, k2: v2}
		}
		if stageIn != "" {
			d.StageIn = strings.Split(stageIn, ",")
		}
		checkMatchesEncodingXML(t, &d)
	})
}
