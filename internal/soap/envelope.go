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
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// encBufPool recycles envelope build buffers: every SOAP request and
// response on the container hot path encodes through here, and the
// envelopes are small enough that the buffers stay warm. The encoded
// bytes are copied out before the buffer returns to the pool.
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

// Encode renders the message as a SOAP envelope.
func Encode(m *Message) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	buf.WriteString(xml.Header)
	buf.WriteString(`<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `">`)
	if len(m.Headers) > 0 {
		buf.WriteString(`<soapenv:Header>`)
		keys := make([]string, 0, len(m.Headers))
		for k := range m.Headers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeElem(buf, k, m.Headers[k])
		}
		buf.WriteString(`</soapenv:Header>`)
	}
	buf.WriteString(`<soapenv:Body>`)
	buf.WriteString(`<ns:` + m.Operation + ` xmlns:ns="` + m.Namespace + `">`)
	for _, p := range m.Params {
		writeElem(buf, p.Name, p.Value)
	}
	buf.WriteString(`</ns:` + m.Operation + `>`)
	buf.WriteString(`</soapenv:Body></soapenv:Envelope>`)
	return append([]byte(nil), buf.Bytes()...), nil
}

// EncodeFault renders a fault envelope.
func EncodeFault(f *Fault) []byte {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	buf.WriteString(xml.Header)
	buf.WriteString(`<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body>`)
	buf.WriteString(`<soapenv:Fault>`)
	writeElem(buf, "faultcode", f.Code)
	writeElem(buf, "faultstring", f.String)
	if f.Actor != "" {
		writeElem(buf, "faultactor", f.Actor)
	}
	if f.Detail != "" {
		writeElem(buf, "detail", f.Detail)
	}
	buf.WriteString(`</soapenv:Fault></soapenv:Body></soapenv:Envelope>`)
	return append([]byte(nil), buf.Bytes()...)
}

func writeElem(buf *bytes.Buffer, name, value string) {
	buf.WriteString("<" + name + ">")
	xml.EscapeText(buf, []byte(value))
	buf.WriteString("</" + name + ">")
}

// Decode parses a SOAP envelope into a Message, or returns the carried
// *Fault as an error if the body is a fault. The document must be whole:
// an envelope that is cut short or stops being XML part-way is ErrNotSOAP,
// never the message read so far.
func Decode(data []byte) (*Message, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	msg := &Message{Headers: map[string]string{}}
	var (
		inHeader  bool
		inBody    bool
		depth     int
		opDepth   = -1
		paramName string
		paramBuf  bytes.Buffer
		fault     *Fault
		faultElem string
		closed    bool // the envelope's end tag has been read
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break // the tokenizer reports EOF only once every element is closed
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotSOAP, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch {
			case depth == 1:
				if closed || t.Name.Space != EnvelopeNS || t.Name.Local != "Envelope" {
					return nil, ErrNotSOAP
				}
			case depth == 2 && t.Name.Space == EnvelopeNS && t.Name.Local == "Header":
				inHeader = true
			case depth == 2 && t.Name.Space == EnvelopeNS && t.Name.Local == "Body":
				inBody = true
			case inHeader && depth == 3:
				paramName = t.Name.Local
				paramBuf.Reset()
			case inBody && depth == 3:
				if t.Name.Local == "Fault" {
					fault = &Fault{}
				} else if msg.Operation == "" {
					msg.Operation = t.Name.Local
					msg.Namespace = t.Name.Space
					opDepth = depth
				}
			case fault != nil && depth == 4:
				faultElem = t.Name.Local
				paramBuf.Reset()
			case opDepth > 0 && depth == opDepth+1:
				paramName = t.Name.Local
				paramBuf.Reset()
			}
		case xml.CharData:
			if closed && len(bytes.TrimSpace(t)) > 0 {
				return nil, fmt.Errorf("%w: text after the envelope", ErrNotSOAP)
			}
			if (inHeader && depth == 3) || (opDepth > 0 && depth == opDepth+1) || (fault != nil && depth == 4) {
				paramBuf.Write(t)
			}
		case xml.EndElement:
			switch {
			case inHeader && depth == 3:
				msg.Headers[paramName] = paramBuf.String()
			case fault != nil && depth == 4:
				switch faultElem {
				case "faultcode":
					fault.Code = paramBuf.String()
				case "faultstring":
					fault.String = paramBuf.String()
				case "faultactor":
					fault.Actor = paramBuf.String()
				case "detail":
					fault.Detail = paramBuf.String()
				}
			case opDepth > 0 && depth == opDepth+1:
				msg.Params = append(msg.Params, Param{Name: paramName, Value: paramBuf.String()})
			case depth == 2 && t.Name.Local == "Header":
				inHeader = false
			case depth == 2 && t.Name.Local == "Body":
				inBody = false
			}
			depth--
			closed = depth == 0
		}
	}
	if !closed {
		return nil, fmt.Errorf("%w: no envelope", ErrNotSOAP)
	}
	if fault != nil {
		return nil, fault
	}
	if msg.Operation == "" {
		return nil, ErrNoOperation
	}
	return msg, nil
}
