package flatjson

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// doc is a document of every kind of member the package reads. Name is
// read with Token, the way a caller reads a value it only compares.
type doc struct {
	S    string            `json:"s"`
	Name string            `json:"name"`
	U    uint64            `json:"u"`
	I    int64             `json:"i"`
	M    map[string]string `json:"m,omitempty"`
	F    float64           `json:"f"`
	B    bool              `json:"b"`
	A    []elem            `json:"a"`
	R    json.RawMessage   `json:"r,omitempty"`
}

// elem is an element of doc's array.
type elem struct {
	S string  `json:"s"`
	F float64 `json:"f"`
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
		case "m":
			d.M = o.Map(true)
		case "skipped":
			o.Skip()
		case "skippedm":
			o.Map(false)
		case "f":
			d.F = o.Float()
		case "b":
			d.B = o.Bool()
		case "a":
			a := o.Array()
			d.A = walkElems(&a)
			o.Resume(&a)
		case "r":
			// Raw leaves the value to its caller, which here judges it
			// as encoding/json does.
			if d.R = o.Raw(); !json.Valid(d.R) {
				o.Fail()
			}
		default:
			o.Fail()
		}
	}
	return d, o.Done()
}

// walkElems reads an array of elems, as the package's callers do.
func walkElems(a *Array) []elem {
	out := []elem{}
	for a.Next() {
		var e elem
		el := a.Elem()
		for el.Next() {
			switch string(el.Key()) {
			case "s":
				e.S = el.String()
			case "f":
				e.F = el.Float()
			default:
				el.Fail()
			}
		}
		out = append(out, e)
	}
	return out
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
		{`{"m":null}`, doc{}},
		{`{"m":{}}`, doc{M: map[string]string{}}},
		{`{"s":"a","m":{"n":"1","k\u00e9y":"v\n"},"u":2}`, doc{S: "a", U: 2, M: map[string]string{"n": "1", "k\u00e9y": "v\n"}}},
		{`{"m":{"a":"1","a":"2"}}`, doc{M: map[string]string{"a": "2"}}},
		{`{"m":{"a":"","b":"","c":"","d":"","e":"","f":"","g":"","h":"","i":""}}`,
			doc{M: map[string]string{"a": "", "b": "", "c": "", "d": "", "e": "", "f": "", "g": "", "h": "", "i": ""}}},
		{`{"skippedm":{"x":"\t","y":""},"s":"b"}`, doc{S: "b"}},
		{`{"skippedm":null}`, doc{}},
		{`{"f":0,"b":true}`, doc{B: true}},
		{`{"f":-0.5e+3,"b":false}`, doc{F: -500}},
		{`{"f":1E-7}`, doc{F: 1e-7}},
		{`{"f":12.25}`, doc{F: 12.25}},
		{`{"a":[]}`, doc{A: []elem{}}},
		{`{"a":[{}]}`, doc{A: []elem{{}}}},
		{`{"a":[{"s":"x","f":2},{"f":3,"s":"y"}],"s":"z"}`, doc{S: "z", A: []elem{{"x", 2}, {"y", 3}}}},
		{`{"r":{},"s":"a"}`, doc{S: "a", R: json.RawMessage(`{}`)}},
		{`{"r":[{"a":["}",{"b":1}]},"]"]}`, doc{R: json.RawMessage(`[{"a":["}",{"b":1}]},"]"]`)}},
	} {
		got, ok := walk([]byte(tc.in))
		if !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, done %v; want %+v", tc.in, got, ok, tc.want)
		}
		var ref doc
		if err := json.Unmarshal([]byte(tc.in), &ref); err != nil || !reflect.DeepEqual(ref, got) {
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
		"string for a map":          `{"m":"a"}`,
		"array for a map":           `{"m":[]}`,
		"null cut short":            `{"m":nul}`,
		"bytes after null":          `{"m":nullx}`,
		"map never closed":          `{"m":{"a":"1"}`,
		"comma before a map's end":  `{"m":{"a":"1",}}`,
		"no colon in a map":         `{"m":{"a"}}`,
		"white space in a map":      `{"m":{ "a":"1"}}`,
		"number in a map":           `{"m":{"a":1}}`,
		"null in a map":             `{"m":{"a":null}}`,
		"map in a map":              `{"m":{"a":{}}}`,
		"invalid UTF-8 map key":     "{\"m\":{\"\xff\":\"1\"}}",
		"surrogate in a map key":    `{"m":{"\ud800":"1"}}`,
		"number in a skipped map":   `{"skippedm":{"x":1}}`,
		"bad escape in skipped map": `{"skippedm":{"x":"\x"}}`,
		"minus zero":                `{"i":-0}`,
		"float with no digits":      `{"f":-}`,
		"float's leading zero":      `{"f":01}`,
		"float's bare point":        `{"f":1.}`,
		"float's point first":       `{"f":.5}`,
		"float's plus sign":         `{"f":+1}`,
		"float's empty exponent":    `{"f":1e}`,
		"float past float64":        `{"f":1e400}`,
		"float as a word":           `{"f":Inf}`,
		"hex float":                 `{"f":0x1p-2}`,
		"bool cut short":            `{"b":tru}`,
		"bool in upper case":        `{"b":True}`,
		"null for a bool":           `{"b":null}`,
		"null for an array":         `{"a":null}`,
		"object for an array":       `{"a":{}}`,
		"array never closed":        `{"a":[{}`,
		"comma before an array end": `{"a":[{},]}`,
		"string in an array":        `{"a":["s"]}`,
		"white space in an array":   `{"a":[ {}]}`,
		"unknown member in element": `{"a":[{"x":""}]}`,
		"duplicate in an element":   `{"a":[{"s":"","s":""}]}`,
		"raw string":                `{"r":"s"}`,
		"raw number":                `{"r":1}`,
		"raw never closed":          `{"r":{"a":[1}`,
		"raw's string never closed": `{"r":{"a":"}}`,
		"raw not JSON":              `{"r":{a}}`,
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
	if o.Next() || o.Key() != nil || o.String() != "" || o.Token() != nil || o.Uint() != 0 || o.Int() != 0 || o.Map(true) != nil || o.Done() {
		t.Fatal("a walk that failed at the first byte still returned something")
	}
}

// TestArrayDocument: a whole document may be an array of flat objects,
// as a trailing newline is allowed after an object; an array member the
// caller did not resume past fails the walk.
func TestArrayDocument(t *testing.T) {
	for in, want := range map[string]bool{`[]`: true, `[{"s":"a"},{"f":1}]` + "\n": true, `[{}]]`: false, `[{}`: false, `{}`: false} {
		a := OpenArray([]byte(in))
		walkElems(&a)
		if a.Done() != want {
			t.Errorf("%s: done %v, want %v", in, a.Done(), want)
		}
	}
	o := Open([]byte(`{"a":[{}],"s":"x"}`))
	for o.Next() {
		if string(o.Key()) == "a" {
			a := o.Array()
			walkElems(&a)
			continue
		}
		o.Skip()
	}
	if o.Done() {
		t.Error("a walk went on past an array it did not resume after")
	}
}

// TestShareAndPlain: with a shared copy, String returns a substring of it
// for a value without escapes; Plain tells which values json.Marshal
// writes as they stand.
func TestShareAndPlain(t *testing.T) {
	in := `{"s":"a/b","name":"x<y","i":1,"m":null,"skipped":"\u0061","b":true,"f":1}`
	shared := string([]byte(in))
	o := Open([]byte(in))
	o.Share(shared)
	plain := map[string]bool{}
	for o.Next() {
		k := string(o.Key())
		switch k {
		case "s", "name", "skipped":
			v := o.String()
			plain[k] = o.Plain()
			if k == "s" && v != "a/b" {
				t.Fatalf("s read as %q", v)
			}
		case "i":
			o.Int()
		case "m":
			o.Map(false)
		case "b":
			o.Bool()
		case "f":
			o.Float()
		}
	}
	if !o.Done() {
		t.Fatal("walk refused")
	}
	if want := map[string]bool{"s": true, "name": false, "skipped": false}; !reflect.DeepEqual(plain, want) {
		t.Errorf("plain %v, want %v", plain, want)
	}
	b := []byte(in)
	if n := testing.AllocsPerRun(100, func() {
		o := Open(b)
		o.Share(shared)
		if o.Next() && o.String() != "a/b" {
			t.Fatal("s read wrong")
		}
	}); n != 0 {
		t.Errorf("a shared string cost %.0f objects", n)
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
// strings, integers and a map of strings, which are the shape this package
// exists to read.
func FuzzWalkMatchesEncodingJSON(f *testing.F) {
	for _, in := range []string{
		`{}`, `{"s":"a","name":"DONE","u":7,"i":-7}`, `{"s":"a"}` + "\n", `{"s":"\u00e9\/\n"}`,
		`{"s":"\ud800"}`, "{\"s\":\"\xff\"}", `{"u":01}`, `{"i":-9223372036854775808}`, `{"s":"a","s":"b"}`,
		`{"skipped":"\u0000","s":"日本語"}`, ` {"s":"a"}`, `{"S":"a"}`, `{"s":null}`, `{"u":18446744073709551615}`,
		`{"m":{"a":"1","a":"2","\u00e9":""}}`, `{"m":null}`, `{"m":{}}`, `{"m":{"a":1}}`, `{"skippedm":{"x":"y"},"s":"a"}`,
		`{"f":-0,"b":false}`, `{"f":1.5e-300}`, `{"f":1e400}`, `{"a":[{"s":"x","f":2.5},{}]}`, `{"a":[{},]}`, `{"r":{"x":[1,"]"]}}`, `{"r":{]}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok := walk(data); ok {
			var want doc
			if err := json.Unmarshal(data, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\nwalk          %+v\nencoding/json %+v (%v)", data, got, want, err)
			}
		}
		// The same bytes as a value: whatever they are, a document
		// encoding/json writes around them reads back the same both ways.
		// The integers stay inside what the walk reads: nineteen digits,
		// and int64 short of its minimum. For an even length the bytes are
		// a raw value's, for an odd one a map's key and value: the walk
		// reads at most eight members.
		n := uint64(len(data)) * 0x9E3779B97F4A7C15 >> 1
		f := math.Float64frombits(n)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = float64(n)
		}
		raw, err := json.Marshal(map[string][]string{string(data): {string(data)}})
		if err != nil {
			t.Fatal(err)
		}
		in := doc{S: string(data), U: n, I: -int64(n), F: f, B: n%2 == 1, A: []elem{{S: string(data), F: -f}}}
		if len(data)%2 == 0 {
			in.R = raw
		} else {
			in.M = map[string]string{string(data): string(data), "k": ""}
			in.A = append(in.A, elem{})
		}
		written, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var want doc
		if err := json.Unmarshal(written, &want); err != nil {
			t.Fatal(err)
		}
		if got, ok := walk(written); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nwalk          %+v (done %v)\nencoding/json %+v", written, got, ok, want)
		}
	})
}
