package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
)

// encodeReference, encodeFaultReference and writeElemReference are the
// envelope, fault and element writers as they stood before the encoder
// was rewritten: the bytes on the wire the rewritten one must reproduce.
func encodeReference(m *Message) []byte {
	var buf bytes.Buffer
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
			writeElemReference(&buf, k, m.Headers[k])
		}
		buf.WriteString(`</soapenv:Header>`)
	}
	buf.WriteString(`<soapenv:Body>`)
	buf.WriteString(`<ns:` + m.Operation + ` xmlns:ns="` + m.Namespace + `">`)
	for _, p := range m.Params {
		writeElemReference(&buf, p.Name, p.Value)
	}
	buf.WriteString(`</ns:` + m.Operation + `>`)
	buf.WriteString(`</soapenv:Body></soapenv:Envelope>`)
	return buf.Bytes()
}

func encodeFaultReference(f *Fault) []byte {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	buf.WriteString(`<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body>`)
	buf.WriteString(`<soapenv:Fault>`)
	writeElemReference(&buf, "faultcode", f.Code)
	writeElemReference(&buf, "faultstring", f.String)
	if f.Actor != "" {
		writeElemReference(&buf, "faultactor", f.Actor)
	}
	if f.Detail != "" {
		writeElemReference(&buf, "detail", f.Detail)
	}
	buf.WriteString(`</soapenv:Fault></soapenv:Body></soapenv:Envelope>`)
	return buf.Bytes()
}

func writeElemReference(buf *bytes.Buffer, name, value string) {
	buf.WriteString("<" + name + ">")
	xml.EscapeText(buf, []byte(value))
	buf.WriteString("</" + name + ">")
}

// decodeReference is Decode as it stood through PR 15, on encoding/xml's
// tokenizer, unchanged but for its name: the reference the one-pass
// decoder is held to. Whatever Decode accepts, this accepts with a
// deep-equal result; whatever this rejects, Decode rejects.
//
// It parses a SOAP envelope into a Message, or returns the carried
// *Fault as an error if the body is a fault. The document must be whole:
// an envelope that is cut short or stops being XML part-way is ErrNotSOAP,
// never the message read so far.
func decodeReference(data []byte) (*Message, error) {
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
