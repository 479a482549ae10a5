// Package soap implements the SOAP 1.1 stack the Cyberaide onServe
// appliance hosts its generated services on. The paper deploys one Web
// service per uploaded executable into an Axis2-style container ("A SOAP
// server runs the deployed Web services as well as some services related
// to the Cyberaide toolkit"); this package provides the equivalent
// container: envelope encoding/decoding, a fault model, an HTTP server
// that supports deploying and undeploying services at runtime, and a
// client.
//
// The RPC convention mirrors document/literal wrapped style:
//
//	request body:  <ns:Op xmlns:ns="NS"><param>value</param>...</ns:Op>
//	response body: <ns:OpResponse xmlns:ns="NS"><return>...</return></ns:OpResponse>
package soap

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unicode/utf8"
)

// encBufPool recycles envelope build buffers: every SOAP request and
// response on the container hot path encodes through here, and the
// envelopes are small enough that the buffers stay warm. Encode and
// EncodeFault copy the bytes out before the buffer returns to the pool;
// the server writes them to the connection instead.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// Errors.
var (
	ErrNotSOAP     = errors.New("soap: request is not a SOAP envelope")
	ErrNoOperation = errors.New("soap: body carries no operation element")
)

// Fault is the SOAP 1.1 fault structure.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
	Actor  string `xml:"faultactor,omitempty"`
	Detail string `xml:"detail,omitempty"`
}

// Error implements error so faults propagate naturally through Go code.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// Standard fault codes.
const (
	FaultClient = "Client"
	FaultServer = "Server"
)

// Message is a decoded SOAP request or response body: the wrapper
// element's local name, its namespace, and its child elements as an
// ordered list of name/value pairs.
type Message struct {
	Namespace string
	Operation string
	Params    []Param
	Headers   map[string]string // flattened header entries by local name
}

// Param is one child element of the operation wrapper.
type Param struct {
	Name  string
	Value string
}

// Get returns the first parameter named name.
func (m *Message) Get(name string) (string, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// ParamMap flattens parameters to a map (last value wins).
func (m *Message) ParamMap() map[string]string {
	out := make(map[string]string, len(m.Params))
	for _, p := range m.Params {
		out[p.Name] = p.Value
	}
	return out
}

// The fixed parts of every envelope Encode writes. xmlHeader is
// encoding/xml's Header constant, spelled out so that only the tests
// import that package.
const (
	xmlHeader    = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
	envelopeOpen = xmlHeader + `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `">`
	bodyClose    = `</soapenv:Body></soapenv:Envelope>`
)

// Encode renders the message as a SOAP envelope.
func Encode(m *Message) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	writeEnvelope(buf, m.Headers, m.Namespace, m.Operation, "", m.Params)
	return bytes.Clone(buf.Bytes()), nil
}

// writeEnvelope resets buf and builds in it the envelope of the operation
// element named op+suffix in namespace. Names go out as they are; values
// are escaped.
func writeEnvelope(buf *bytes.Buffer, headers map[string]string, namespace, op, suffix string, params []Param) {
	buf.Reset()
	buf.WriteString(envelopeOpen)
	if len(headers) > 0 {
		buf.WriteString(`<soapenv:Header>`)
		var arr [8]string
		keys := arr[:0]
		for k := range headers {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			writeElem(buf, k, headers[k])
		}
		buf.WriteString(`</soapenv:Header>`)
	}
	buf.WriteString(`<soapenv:Body><ns:`)
	buf.WriteString(op)
	buf.WriteString(suffix)
	buf.WriteString(` xmlns:ns="`)
	buf.WriteString(namespace)
	buf.WriteString(`">`)
	for _, p := range params {
		writeElem(buf, p.Name, p.Value)
	}
	buf.WriteString(`</ns:`)
	buf.WriteString(op)
	buf.WriteString(suffix)
	buf.WriteString(`>`)
	buf.WriteString(bodyClose)
}

// EncodeFault renders a fault envelope.
func EncodeFault(f *Fault) []byte {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	writeFault(buf, f)
	return bytes.Clone(buf.Bytes())
}

// writeFault resets buf and builds the fault's envelope in it.
func writeFault(buf *bytes.Buffer, f *Fault) {
	buf.Reset()
	buf.WriteString(envelopeOpen)
	buf.WriteString(`<soapenv:Body><soapenv:Fault>`)
	writeElem(buf, "faultcode", f.Code)
	writeElem(buf, "faultstring", f.String)
	if f.Actor != "" {
		writeElem(buf, "faultactor", f.Actor)
	}
	if f.Detail != "" {
		writeElem(buf, "detail", f.Detail)
	}
	buf.WriteString(`</soapenv:Fault>`)
	buf.WriteString(bodyClose)
}

func writeElem(buf *bytes.Buffer, name, value string) {
	buf.WriteByte('<')
	buf.WriteString(name)
	buf.WriteByte('>')
	escapeText(buf, value)
	buf.WriteString("</")
	buf.WriteString(name)
	buf.WriteByte('>')
}

// asciiEscape holds what xml.EscapeText writes for each ASCII byte it
// does not copy: the five markup characters and tab, newline and carriage
// return as references, every other control character as U+FFFD.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	return
}()

// escapeText appends s to buf byte for byte as xml.EscapeText would
// (FuzzEscapeMatchesEncodingXML holds it to that), without the []byte
// copy of s and the rune decode of every ASCII byte. Bytes that are not
// UTF-8 and characters XML cannot carry become U+FFFD.
func escapeText(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = asciiEscape[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r == utf8.RuneError && width == 1) || r == 0xFFFE || r == 0xFFFF {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			buf.WriteString(s[last:i])
			buf.WriteString(esc)
			last = i + width
		}
		i += width
	}
	buf.WriteString(s[last:])
}
