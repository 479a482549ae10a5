package flatjson

import (
	"encoding/json"
	"testing"
)

// doc is a document of every kind of member the package reads. Name is
// read with Token, the way a caller reads a value it only compares.
type doc struct {
	S    string `json:"s"`
	Name string `json:"name"`
	U    uint64 `json:"u"`
	I    int64  `json:"i"`
}

// walk decodes data the way the package's callers do: known members by
// name, anything else abandons the walk.
func walk(data []byte) (d doc, ok bool) {
	o := Open(data)
	for o.Next() {
		switch string(o.Key()) {
		case "s":
			d.S = o.String()
		case "name":
			d.Name = string(o.Token())
		case "u":
			d.U = o.Uint()
		case "i":
			d.I = o.Int()
		case "skipped":
			o.Skip()
		default:
			o.Fail()
		}
	}
	return d, o.Done()
}

func TestAcceptedShape(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want doc
	}{
		{`{}`, doc{}},
		{`{"s":""}`, doc{}},
		{`{"s":"a","name":"DONE","u":7,"i":-7}`, doc{S: "a", Name: "DONE", U: 7, I: -7}},
		{`{"i":-7,"u":7,"name":"DONE","s":"a"}`, doc{S: "a", Name: "DONE", U: 7, I: -7}},
		{`{"s":"a"}` + "\n", doc{S: "a"}},
		{`{"s":"q\"b\\s\/\b\f\n\r\t"}`, doc{S: "q\"b\\s/\b\f\n\r\t"}},
		{`{"s":"\u00e9\u0041\u2028"}`, doc{S: "éA\u2028"}},
		{`{"s":"ünï©ödé 日本語 😀"}`, doc{S: "ünï©ödé 日本語 😀"}},
		{`{"skipped":"x\ny","s":"a"}`, doc{S: "a"}},
		{`{"u":0,"i":0}`, doc{}},
		{`{"u":9999999999999999999}`, doc{U: 9999999999999999999}},
		{`{"i":9223372036854775807}`, doc{I: 1<<63 - 1}},
		{`{"i":-9223372036854775807}`, doc{I: -(1<<63 - 1)}},
	} {
		got, ok := walk([]byte(tc.in))
		if !ok || got != tc.want {
			t.Errorf("%s: got %+v, done %v; want %+v", tc.in, got, ok, tc.want)
		}
		var ref doc
		if err := json.Unmarshal([]byte(tc.in), &ref); err != nil || ref != got {
			t.Errorf("%s: encoding/json reads %+v (%v), walk %+v", tc.in, ref, err, got)
		}
	}
}

// TestDoneReportsFalse lists every reason a walk gives up. Each document
// is one a caller would hand to encoding/json instead, whatever that
// makes of it.
func TestDoneReportsFalse(t *testing.T) {
	for why, in := range map[string]string{
		"empty input":               ``,
		"not an object":             `["s"]`,
		"leading white space":       ` {"s":"a"}`,
		"white space inside":        `{"s": "a"}`,
		"no colon":                  `{"s"}`,
		"no comma":                  `{"s":"a""u":1}`,
		"comma before the brace":    `{"s":"a",}`,
		"comma first":               `{,}`,
		"object never closed":       `{"s":"a"`,
		"string never closed":       `{"s":"a`,
		"backslash at the end":      `{"s":"a\`,
		"escaped quote at the end":  `{"s":"a\"`,
		"bytes after the object":    `{"s":"a"}}`,
		"two trailing newlines":     `{"s":"a"}` + "\n\n",
		"duplicate key":             `{"s":"a","s":"b"}`,
		"unknown member":            `{"s":"a","extra":"b"}`,
		"key in another case":       `{"S":"a"}`,
		"escape in a key":           `{"\u0073":"a"}`,
		"escape in a token":         `{"name":"D\u004fNE"}`,
		"control byte in a string":  "{\"s\":\"a\nb\"}",
		"invalid UTF-8":             "{\"s\":\"\xff\"}",
		"surrogate escape":          `{"s":"\ud83d\ude00"}`,
		"unknown escape":            `{"s":"\x"}`,
		"short \\u escape":          `{"s":"\u12"}`,
		"\\u escape not hex":        `{"s":"\u12g4"}`,
		"bad escape in a skipped":   `{"skipped":"\x"}`,
		"null for a string":         `{"s":null}`,
		"number for a string":       `{"s":1}`,
		"string for a number":       `{"u":"1"}`,
		"nested object":             `{"s":{}}`,
		"leading zero":              `{"u":01}`,
		"no digits":                 `{"u":}`,
		"minus alone":               `{"i":-}`,
		"minus on an unsigned":      `{"u":-1}`,
		"twenty digits":             `{"u":18446744073709551615}`,
		"fraction":                  `{"u":1.0}`,
		"exponent":                  `{"u":1e3}`,
		"past int64":                `{"i":9223372036854775808}`,
		"int64's minimum":           `{"i":-9223372036854775808}`,
		"nothing after the opening": `{`,
	} {
		if got, ok := walk([]byte(in)); ok {
			t.Errorf("%s: %s accepted as %+v", why, in, got)
		}
	}
}

// TestFailureLatches: after a failure every read returns a zero value,
// so a caller can walk to the end and look at Done once.
func TestFailureLatches(t *testing.T) {
	o := Open([]byte(`["s"]`))
	if o.Next() || o.Key() != nil || o.String() != "" || o.Token() != nil || o.Uint() != 0 || o.Int() != 0 || o.Done() {
		t.Fatal("a walk that failed at the first byte still returned something")
	}
}

// TestEightMembers: the walk remembers eight keys to refuse a duplicate,
// and refuses a ninth member rather than forget one.
func TestEightMembers(t *testing.T) {
	const eight = `{"a":"","b":"","c":"","d":"","e":"","f":"","g":"","h":""`
	for in, want := range map[string]bool{eight + `}`: true, eight + `,"i":""}`: false} {
		o := Open([]byte(in))
		for o.Next() {
			o.Skip()
		}
		if o.Done() != want {
			t.Errorf("%s: done %v, want %v", in, o.Done(), want)
		}
	}
}

// FuzzWalkMatchesEncodingJSON holds the package to its one promise:
// what it accepts it decodes to what encoding/json decodes. What it
// refuses is the caller's to hand on, so nothing is claimed there —
// except for documents json.Marshal itself wrote from a struct of
// strings and integers, which are the shape this package exists to read.
func FuzzWalkMatchesEncodingJSON(f *testing.F) {
	for _, in := range []string{
		`{}`, `{"s":"a","name":"DONE","u":7,"i":-7}`, `{"s":"a"}` + "\n", `{"s":"\u00e9\/\n"}`,
		`{"s":"\ud800"}`, "{\"s\":\"\xff\"}", `{"u":01}`, `{"i":-9223372036854775808}`, `{"s":"a","s":"b"}`,
		`{"skipped":"\u0000","s":"日本語"}`, ` {"s":"a"}`, `{"S":"a"}`, `{"s":null}`, `{"u":18446744073709551615}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok := walk(data); ok {
			var want doc
			if err := json.Unmarshal(data, &want); err != nil || got != want {
				t.Fatalf("%q:\nwalk          %+v\nencoding/json %+v (%v)", data, got, want, err)
			}
		}
		// The same bytes as a value: whatever they are, a document
		// encoding/json writes around them reads back the same both ways.
		// The integers stay inside what the walk reads: nineteen digits,
		// and int64 short of its minimum.
		n := uint64(len(data)) * 0x9E3779B97F4A7C15 >> 1
		in := doc{S: string(data), U: n, I: -int64(n)}
		written, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var want doc
		if err := json.Unmarshal(written, &want); err != nil {
			t.Fatal(err)
		}
		if got, ok := walk(written); !ok || got != want {
			t.Fatalf("%s:\nwalk          %+v (done %v)\nencoding/json %+v", written, got, ok, want)
		}
	})
}
