package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"testing"
)

// FuzzDecode is differential: whatever Decode accepts — as a message or
// as a fault — decodeReference accepts with a deep-equal result, and
// whatever decodeReference rejects, Decode rejects. (Decode may refuse
// more; what it is known to refuse is narrowedCorpus.)
func FuzzDecode(f *testing.F) {
	good, _ := Encode(&Message{
		Namespace: "urn:x", Operation: "op",
		Params:  []Param{{Name: "a", Value: "1"}},
		Headers: map[string]string{"T": "v"},
	})
	f.Add(good)
	f.Add(EncodeFault(&Fault{Code: FaultServer, String: "boom"}))
	f.Add([]byte("<html/>"))
	f.Add([]byte(""))
	f.Add([]byte(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body></soapenv:Body></soapenv:Envelope>`))
	f.Add([]byte(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><A>1</A></soapenv:Header><soapenv:Body><x:op xmlns:x="u"><p>v</p></x:op></soapenv:Body></soapenv:Envelope>`))
	for _, corpus := range [][]doc{acceptCorpus, rejectCorpus, narrowedCorpus} {
		for _, d := range corpus {
			f.Add([]byte(d.xml))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		refMsg, refErr := decodeReference(data)
		if err != nil && !errors.As(err, new(*Fault)) {
			return // refusing is always allowed
		}
		if !sameResult(msg, err, refMsg, refErr) {
			t.Fatalf("%q\nDecode:    %s\nreference: %s", data, render(msg, err), render(refMsg, refErr))
		}
		if err == nil {
			// A decoded message names an operation and encodes again.
			if msg.Operation == "" {
				t.Fatalf("decoded message without operation from %q", data)
			}
			if _, err := Encode(msg); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
		}
	})
}

// FuzzEscapeMatchesEncodingXML holds the envelope writer's escaper to
// xml.EscapeText byte for byte, invalid UTF-8 and control characters
// included.
func FuzzEscapeMatchesEncodingXML(f *testing.F) {
	for _, s := range awkward {
		f.Add(s)
	}
	f.Add("plain")
	f.Add("\x00\x01\x1f\x7f")
	f.Add("\xff\xc0\xaf\xed\xa0\x80\xe5\xa4")
	f.Add("\uFFFE\uFFFF\uFFFD\U0010FFFF")
	f.Fuzz(func(t *testing.T, s string) {
		var got, want bytes.Buffer
		escapeText(&got, s)
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("escapeText(%q) = %q, xml.EscapeText gives %q", s, got.Bytes(), want.Bytes())
		}
	})
}
