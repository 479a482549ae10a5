package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wsdl"
)

// The contract of the one-pass decoder, checked against decodeReference
// (reference_test.go):
//
//   - acceptCorpus: both decoders return the same Message or Fault;
//   - rejectCorpus: both return an error that is not a Fault;
//   - narrowedCorpus: the reference accepts, Decode refuses — the complete
//     list of what the rewrite stopped accepting, each with its reason.
//
// FuzzDecode extends the first two to whatever the mutator finds.

const (
	envOpen  = `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `">`
	envClose = `</soapenv:Envelope>`
)

func inEnvelope(inner string) string { return envOpen + inner + envClose }
func inBody(inner string) string {
	return inEnvelope(`<soapenv:Body>` + inner + `</soapenv:Body>`)
}
func inOp(params string) string { return inBody(`<ns:op xmlns:ns="urn:x">` + params + `</ns:op>`) }

// render flattens a decode result for the tables: "op{ns}" then the
// header entries sorted and the parameters in order, or "fault" and its
// four fields.
func render(msg *Message, err error) string {
	var f *Fault
	switch {
	case errors.As(err, &f):
		return fmt.Sprintf("fault %q %q %q %q", f.Code, f.String, f.Actor, f.Detail)
	case err != nil:
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s{%s}", msg.Operation, msg.Namespace)
	keys := make([]string, 0, len(msg.Headers))
	for k := range msg.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " [%s=%q]", k, msg.Headers[k])
	}
	for _, p := range msg.Params {
		fmt.Fprintf(&b, " %s=%q", p.Name, p.Value)
	}
	return b.String()
}

// sameResult compares what the two decoders returned: deep-equal
// messages (a nil and an empty Headers map being the same thing) or
// deep-equal faults.
func sameResult(m1 *Message, e1 error, m2 *Message, e2 error) bool {
	var f1, f2 *Fault
	if is1, is2 := errors.As(e1, &f1), errors.As(e2, &f2); is1 || is2 {
		return is1 && is2 && *f1 == *f2
	}
	if e1 != nil || e2 != nil {
		return false
	}
	if len(m1.Headers) == 0 && len(m2.Headers) == 0 {
		a, b := *m1, *m2
		a.Headers, b.Headers = nil, nil
		return reflect.DeepEqual(a, b)
	}
	return reflect.DeepEqual(m1, m2)
}

type doc struct{ name, xml, want string }

var acceptCorpus = []doc{
	{"SOAP-ENV prefix",
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + EnvelopeNS + `"><SOAP-ENV:Body><m:op xmlns:m="urn:m"><a>1</a></m:op></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		`op{urn:m} a="1"`},
	{"default-namespace envelope",
		`<Envelope xmlns="` + EnvelopeNS + `"><Body><m:op xmlns:m="urn:m"><a>1</a></m:op></Body></Envelope>`,
		`op{urn:m} a="1"`},
	{"operation under a default xmlns",
		inBody(`<op xmlns="urn:d"><a>1</a><b>2</b></op>`),
		`op{urn:d} a="1" b="2"`},
	{"operation in no namespace",
		inBody(`<op><a>1</a></op>`),
		`op{} a="1"`},
	{"default namespace undeclared again",
		`<Envelope xmlns="` + EnvelopeNS + `"><Body><op xmlns=""><a>1</a></op></Body></Envelope>`,
		`op{} a="1"`},
	{"attributes on every level",
		`<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/">` +
			`<soapenv:Header><t:Token xmlns:t="urn:t" soapenv:mustUnderstand="1" soapenv:actor='next'>abc</t:Token></soapenv:Header>` +
			`<soapenv:Body xml:lang="en"><ns:op xmlns:ns="urn:x" soapenv:encodingStyle=""><a xsi:type="xsd:string">1</a><b xsi:type='xsd:int' note="x > y">2</b></ns:op></soapenv:Body></soapenv:Envelope>`,
		`op{urn:x} [Token="abc"] a="1" b="2"`},
	{"pretty-printed",
		xml.Header + "<soapenv:Envelope\n\txmlns:soapenv = \"" + EnvelopeNS + "\"\r\n>\n  <soapenv:Header>\n    <Token>t</Token>\n  </soapenv:Header>\n  <soapenv:Body>\n    <ns:op xmlns:ns=\"urn:x\">\n      <a>1</a>\n      <b> 2 </b>\n    </ns:op >\n  </soapenv:Body>\n</soapenv:Envelope>\n",
		`op{urn:x} [Token="t"] a="1" b=" 2 "`},
	{"CDATA values",
		inOp(`<a><![CDATA[x < y & z]]></a><b>1<![CDATA[]]>2</b><c><![CDATA[&amp;]]>&amp;</c><d><![CDATA[l1` + "\r\n" + `l2` + "\r" + `]]></d>`),
		`op{urn:x} a="x < y & z" b="12" c="&amp;&" d="l1\nl2\n"`},
	{"comments inside values",
		inOp(`<a>x<!-- c -->y</a><b><!----></b><c>]]<!-- -->></c>`),
		`op{urn:x} a="xy" b="" c="]]>"`},
	{"comments between elements",
		xml.Header + `<!-- before -->` + inEnvelope(`<!-- in --><soapenv:Body><!-- in --><ns:op xmlns:ns="urn:x"><!-- in --><a>1</a></ns:op></soapenv:Body>`) + `<!-- after -->`,
		`op{urn:x} a="1"`},
	{"character references",
		inOp(`<a>&#65;&#x42;&#x1F600;&#0000067;</a><b>&#13;&#10;|&#xD;&#xa;</b><c>&#xD800;</c><d>&lt;&gt;&amp;&apos;&quot;</d>`),
		`op{urn:x} a="AB😀C" b="\r\n|\r\n" c="` + "\uFFFD" + `" d="<>&'\""`},
	{"line ends",
		inOp("<a>1\r\n2\r3\n4\r\r\n5</a><b>\r&#10;</b>"),
		`op{urn:x} a="1\n2\n3\n4\n\n5" b="\n\n"`},
	{"empty-element parameters",
		inOp(`<a/><b /><c></c>`),
		`op{urn:x} a="" b="" c=""`},
	{"empty-element operation",
		inBody(`<ns:ping xmlns:ns="urn:x"/>`),
		`ping{urn:x}`},
	{"child element inside a parameter",
		inOp(`<a>x<inner>ignored<deeper>also</deeper></inner>y</a>`),
		`op{urn:x} a="xy"`},
	{"two operation elements",
		inBody(`<ns:first xmlns:ns="urn:1"><a>1</a></ns:first><ns:second xmlns:ns="urn:2"><b>2</b></ns:second>`),
		`first{urn:1} a="1" b="2"`},
	{"header entries",
		inEnvelope(`<soapenv:Header><Token>abc==</Token><User>alice &amp; bob</User><Token>last</Token></soapenv:Header><soapenv:Body><ns:op xmlns:ns="urn:x"/></soapenv:Body>`),
		`op{urn:x} [Token="last"] [User="alice & bob"]`},
	{"empty header",
		inEnvelope(`<soapenv:Header/><soapenv:Body><ns:op xmlns:ns="urn:x"/></soapenv:Body>`),
		`op{urn:x}`},
	{"structured header entry after the body",
		inEnvelope(`<soapenv:Body><ns:op xmlns:ns="urn:x"><a>1</a></ns:op></soapenv:Body><soapenv:Header><h><k>v</k></h></soapenv:Header>`),
		`op{urn:x} [k="v"] a="1" k="v"`},
	{"unknown envelope child",
		inEnvelope(`<soapenv:Body><ns:op xmlns:ns="urn:x"/></soapenv:Body><x:Trailer xmlns:x="urn:t"><t>1</t></x:Trailer>`),
		`op{urn:x}`},
	{"Header and Body in another namespace are not the envelope's",
		inEnvelope(`<o:Header xmlns:o="urn:o"><T>1</T></o:Header><o:Body xmlns:o="urn:o"><wrong/></o:Body><soapenv:Body><ns:op xmlns:ns="urn:x"/></soapenv:Body>`),
		`op{urn:x}`},
	{"text around the operation",
		inBody(`stray<ns:op xmlns:ns="urn:x">stray<a>1</a>stray</ns:op>stray`),
		`op{urn:x} a="1"`},
	{"prefix redeclared on the operation",
		inBody(`<soapenv:op xmlns:soapenv="urn:inner"><a>1</a></soapenv:op>`),
		`op{urn:inner} a="1"`},
	{"escaped namespace name",
		inBody(`<ns:op xmlns:ns="urn:a&amp;b&#x3D;c"><a>1</a></ns:op>`),
		`op{urn:a&b=c} a="1"`},
	{"duplicate declaration, last wins",
		inBody(`<ns:op xmlns:ns="urn:1" xmlns:ns="urn:2"/>`),
		`op{urn:2}`},
	{"attributes without white space between them",
		inBody(`<ns:op xmlns:ns="urn:x"a="1"b='2'/>`),
		`op{urn:x}`},
	{"XML declaration, single quotes and standalone",
		`<?xml version='1.0' encoding='utf-8' standalone="yes" ?>` + "\r\n" + inOp(`<a>1</a>`) + " \t\r\n",
		`op{urn:x} a="1"`},
	{"XML declaration, version only",
		`<?xml version="1.0"?>` + inOp(`<a>1</a>`),
		`op{urn:x} a="1"`},
	{"fault",
		inBody(`<soapenv:Fault><faultcode>Server</faultcode><faultstring>a &lt; b</faultstring><faultactor>me</faultactor><detail>d<x>nested</x>e</detail><other>o</other></soapenv:Fault>`),
		`fault "Server" "a < b" "me" "de"`},
	{"fault named in any namespace",
		inBody(`<Fault><faultcode>Client</faultcode></Fault>`),
		`fault "Client" "" "" ""`},
	{"fault beside an operation",
		inBody(`<ns:op xmlns:ns="urn:x"><a>1</a></ns:op><soapenv:Fault><faultstring>late</faultstring></soapenv:Fault>`),
		`fault "" "late" "" ""`},
	{"second fault starts over",
		inBody(`<soapenv:Fault><faultcode>one</faultcode></soapenv:Fault><soapenv:Fault><faultstring>two</faultstring></soapenv:Fault>`),
		`fault "" "two" "" ""`},
	{"header entry child while a fault is known",
		inEnvelope(`<soapenv:Body><soapenv:Fault><faultcode>c</faultcode></soapenv:Fault></soapenv:Body><soapenv:Header><h><faultstring>s</faultstring></h></soapenv:Header>`),
		`fault "c" "s" "" ""`},
	{"non-ASCII values",
		inOp(`<a>größe — 大小 ` + "\uFFFD" + `</a>`),
		`op{urn:x} a="größe — 大小 ` + "\uFFFD" + `"`},
}

var rejectCorpus = []doc{
	{name: "empty", xml: ``},
	{name: "white space only", xml: " \n"},
	{name: "not XML", xml: `hello`},
	{name: "another root", xml: `<html></html>`},
	{name: "wrong envelope namespace", xml: `<soapenv:Envelope xmlns:soapenv="http://www.w3.org/2003/05/soap-envelope"><soapenv:Body><op/></soapenv:Body></soapenv:Envelope>`},
	{name: "envelope in no namespace", xml: `<Envelope><Body><op/></Body></Envelope>`},
	{name: "undeclared prefix on the envelope", xml: `<soapenv:Envelope><soapenv:Body><op/></soapenv:Body></soapenv:Envelope>`},
	{name: "undeclared prefix on the body", xml: inEnvelope(`<s:Body><op/></s:Body>`)},
	{name: "prefix out of scope", xml: inBody(`<a:x xmlns:a="`+EnvelopeNS+`"/>`) + `<a:Envelope/>`},
	{name: "no body", xml: inEnvelope(``)},
	{name: "no operation", xml: inBody(``)},
	{name: "unknown entity", xml: inOp(`<a>&nbsp;</a>`)},
	{name: "entity without semicolon", xml: inOp(`<a>&amp</a>`)},
	{name: "bare ampersand", xml: inOp(`<a>a & b</a>`)},
	{name: "entity in an attribute", xml: inOp(`<a t="&bogus;">1</a>`)},
	{name: "empty character reference", xml: inOp(`<a>&#;</a>`)},
	{name: "empty hex reference", xml: inOp(`<a>&#x;</a>`)},
	{name: "upper-case X reference", xml: inOp(`<a>&#X41;</a>`)},
	{name: "reference to NUL", xml: inOp(`<a>&#0;</a>`)},
	{name: "reference to a control character", xml: inOp(`<a>&#x1B;</a>`)},
	{name: "reference to U+FFFE", xml: inOp(`<a>&#xFFFE;</a>`)},
	{name: "reference past U+10FFFF", xml: inOp(`<a>&#x110000;</a>`)},
	{name: "reference overflowing 64 bits", xml: inOp(`<a>&#99999999999999999999999;</a>`)},
	{name: "mismatched end tag", xml: inOp(`<a>1</b>`)},
	{name: "end tag under another prefix of the same namespace", xml: inBody(`<a:op xmlns:a="urn:x" xmlns:b="urn:x"></b:op>`)},
	{name: "end tag without start", xml: inOp(`</a>`)},
	{name: "overlapping elements", xml: inOp(`<a><b></a></b>`)},
	{name: "< inside an attribute", xml: inOp(`<a t="<">1</a>`)},
	{name: "unquoted attribute", xml: inOp(`<a t=1>1</a>`)},
	{name: "attribute without value", xml: inOp(`<a t>1</a>`)},
	{name: "unterminated attribute", xml: inOp(`<a t="1>1</a>`)},
	{name: "invalid UTF-8 in a value", xml: inOp("<a>\xff</a>")},
	{name: "truncated UTF-8 in a value", xml: inOp("<a>\xe5\xa4</a>")},
	{name: "UTF-8 surrogate in a value", xml: inOp("<a>\xed\xa0\x80</a>")},
	{name: "invalid UTF-8 in an attribute", xml: inOp("<a t='\xc0\xaf'>1</a>")},
	{name: "invalid UTF-8 in CDATA", xml: inOp("<a><![CDATA[\xff]]></a>")},
	{name: "invalid UTF-8 between elements", xml: inBody("\xff<op/>")},
	{name: "control character in a value", xml: inOp("<a>\x01</a>")},
	{name: "control character in CDATA", xml: inOp("<a><![CDATA[\x00]]></a>")},
	{name: "U+FFFF in a value", xml: inOp("<a>\uFFFF</a>")},
	{name: "]]> in text", xml: inOp(`<a>x]]>y</a>`)},
	{name: "unterminated CDATA", xml: inOp(`<a><![CDATA[x</a>`) + `]]`},
	{name: "bad CDATA keyword", xml: inOp(`<a><![cdata[x]]></a>`)},
	{name: "unterminated comment", xml: inOp(`<a><!-- x</a>`)},
	{name: "-- inside a comment", xml: inOp(`<a><!-- x -- y --></a>`)},
	{name: "comment ending --->", xml: inOp(`<a><!-- x ---></a>`)},
	{name: "<!- is not a comment", xml: inOp(`<a><!- x --></a>`)},
	{name: "second root", xml: inOp(``) + inOp(``)},
	{name: "text after the envelope", xml: inOp(``) + `x`},
	{name: "CDATA after the envelope", xml: inOp(``) + `<![CDATA[x]]>`},
	{name: "name with two colons", xml: inBody(`<a:b:c xmlns:a="urn:x"/>`)},
	{name: "name starting with a digit", xml: inOp(`<1a>1</1a>`)},
	{name: "name starting with a dash", xml: inOp(`<-a>1</-a>`)},
	{name: "space before the name", xml: inOp(`< a>1</a>`)},
	{name: "space in the end tag", xml: inOp(`<a>1</ a>`)},
	{name: "garbage in the end tag", xml: inOp(`<a>1</a b>`)},
	{name: "/ not followed by >", xml: inOp(`<a/ >`)},
	{name: "XML version 1.1", xml: `<?xml version="1.1"?>` + inOp(``)},
	{name: "non-UTF-8 encoding", xml: `<?xml version="1.0" encoding="ISO-8859-1"?>` + inOp(``)},
	{name: "unterminated XML declaration", xml: `<?xml version="1.0"` + inOp(``)},
	{name: "unterminated start tag", xml: envOpen + `<soapenv:Body`},
	{name: "unclosed envelope", xml: envOpen + `<soapenv:Body><op/></soapenv:Body>`},
}

// narrowedCorpus: documents decodeReference accepts and Decode refuses.
// This is the whole list; each entry says what forbids the document or
// why no caller of this container can send it.
var narrowedCorpus = []doc{
	// SOAP 1.1 §3: "A SOAP message MUST NOT contain a Document Type
	// Declaration. A SOAP message MUST NOT contain Processing
	// Instructions." encoding/xml skips both.
	{name: "DOCTYPE", xml: `<!DOCTYPE x [<!ENTITY e "v">]>` + inOp(`<a>1</a>`)},
	{name: "processing instruction before the envelope", xml: `<?pi x?>` + inOp(`<a>1</a>`)},
	{name: "processing instruction in a value", xml: inOp(`<a>1<?pi x?></a>`)},
	// XML 1.0 §2.8: the XML declaration is only a declaration as the
	// first thing in the document; anywhere else "<?xml" is a reserved
	// processing-instruction target (§2.6), so the rule above applies.
	{name: "XML declaration after white space", xml: "\n" + xml.Header + inOp(`<a>1</a>`)},
	{name: "XML declaration inside the envelope", xml: inEnvelope(xml.Header + `<soapenv:Body><op/></soapenv:Body>`)},
	// XML 1.0 §2.8 [23]–[25]: VersionInfo is required and must come
	// first; encoding/xml looks for the substrings "version=" and
	// "encoding=" and accepts anything else between "<?xml" and "?>".
	// Only version="1.0" [encoding="utf-8"] [standalone] written without
	// spaces around "=" is accepted here.
	{name: "XML declaration without version", xml: `<?xml encoding="UTF-8"?>` + inOp(`<a>1</a>`)},
	{name: "XML declaration with spaces around =", xml: `<?xml version = "1.0"?>` + inOp(`<a>1</a>`)},
	{name: "XML declaration with an unknown pseudo-attribute", xml: `<?xml version="1.0" flavour="x"?>` + inOp(`<a>1</a>`)},
	{name: "XML declaration with an unquoted value", xml: `<?xml version="1.0" encoding=UTF-8?>` + inOp(`<a>1</a>`)},
	{name: "XML declaration with standalone neither yes nor no", xml: `<?xml version="1.0" standalone="maybe"?>` + inOp(`<a>1</a>`)},
	// XML 1.0 §2.8 [22]: before the root element a document has only
	// the declaration, comments, and white space ([27] Misc). That
	// includes a byte order mark, which is not white space; no encoder
	// this container talks to writes one.
	{name: "text before the envelope", xml: `junk` + inOp(`<a>1</a>`)},
	{name: "byte order mark", xml: "\uFEFF" + inOp(`<a>1</a>`)},
	{name: "CDATA before the envelope", xml: `<![CDATA[x]]>` + inOp(`<a>1</a>`)},
	// After it, XML white space only (#x20 #x9 #xD #xA, §2.3 [3]); the
	// reference trimmed with Unicode's wider notion of space.
	{name: "Unicode space after the envelope", xml: inOp(`<a>1</a>`) + "\u00A0"},
	{name: "white space as a character reference after the envelope", xml: inOp(`<a>1</a>`) + "&#32;"},
	// Namespaces in XML 1.0 §3, namespace constraint "Prefix Declared":
	// encoding/xml passes an undeclared prefix through as if it were the
	// namespace name.
	{name: "undeclared prefix on the operation", xml: inBody(`<q:op><a>1</a></q:op>`)},
	{name: "undeclared prefix on a parameter", xml: inOp(`<q:a>1</q:a>`)},
	{name: "undeclared prefix on a header entry", xml: inEnvelope(`<soapenv:Header><q:T>1</q:T></soapenv:Header><soapenv:Body><op/></soapenv:Body>`)},
	// Same section, "Reserved Prefixes and Namespace Names": xmlns must
	// not be declared or used as an element prefix, and xml is bound to
	// a namespace no SOAP element belongs to.
	{name: "element in the xml namespace", xml: inOp(`<xml:a>1</xml:a>`)},
	{name: "element under the xmlns prefix", xml: inOp(`<xmlns:a>1</xmlns:a>`)},
	// Namespaces in XML 1.0 §4 [7]–[11]: a qualified name is
	// NCName(':'NCName)?, both parts starting with a name start
	// character. encoding/xml takes ":a" and "a:" as local names and
	// lets the part after the colon start with a digit.
	{name: "name starting with a colon", xml: inOp(`<:a>1</:a>`)},
	{name: "name ending with a colon", xml: inOp(`<a:>1</a:>`)},
	{name: "local part starting with a digit", xml: inBody(`<ns:op xmlns:ns="urn:x"><ns:1>1</ns:1></ns:op>`)},
	// No specification forbids names outside ASCII. They are refused
	// because telling an XML letter from another rune needs the
	// character tables of XML 1.0 Appendix B, and every name this
	// container can be asked for — the GridService template's
	// operations, the UDDI facade's, "return" — is ASCII. A service
	// uploaded with a non-ASCII parameter name can be invoked through
	// the JSON door only.
	{name: "non-ASCII element name", xml: inOp(`<größe>1</größe>`)},
	{name: "non-ASCII attribute name", xml: inOp(`<a größe="1">1</a>`)},
	// The depth cap (maxDepth): an RPC envelope is four levels deep.
	{name: "nesting past the depth cap", xml: inOp(strings.Repeat(`<d>`, maxDepth) + strings.Repeat(`</d>`, maxDepth))},
}

func TestDecodeAcceptsLikeReference(t *testing.T) {
	for _, d := range acceptCorpus {
		msg, err := Decode([]byte(d.xml))
		if got := render(msg, err); got != d.want {
			t.Errorf("%s: Decode gave\n\t%s\nwant\n\t%s", d.name, got, d.want)
		}
		refMsg, refErr := decodeReference([]byte(d.xml))
		if !sameResult(msg, err, refMsg, refErr) {
			t.Errorf("%s: Decode gave\n\t%s\nthe reference\n\t%s", d.name, render(msg, err), render(refMsg, refErr))
		}
	}
}

func TestDecodeRejectsLikeReference(t *testing.T) {
	docs := rejectCorpus
	// Every proper prefix of a request, a response and a fault.
	for _, d := range acceptCorpus {
		if d.name != "attributes on every level" && d.name != "CDATA values" && d.name != "fault" {
			continue
		}
		if _, err := decodeReference([]byte(d.xml)); err != nil && !errors.As(err, new(*Fault)) {
			t.Fatalf("%s: reference rejects the whole document: %v", d.name, err)
		}
		for cut := 0; cut < len(d.xml); cut++ {
			docs = append(docs, doc{name: fmt.Sprintf("%s cut at %d", d.name, cut), xml: d.xml[:cut]})
		}
	}
	for _, d := range docs {
		for which, decode := range map[string]func([]byte) (*Message, error){"Decode": Decode, "reference": decodeReference} {
			msg, err := decode([]byte(d.xml))
			if err == nil || errors.As(err, new(*Fault)) {
				t.Errorf("%s: %s accepted it: %s", d.name, which, render(msg, err))
			} else if !errors.Is(err, ErrNotSOAP) && !errors.Is(err, ErrNoOperation) {
				t.Errorf("%s: %s returned an untyped error: %v", d.name, which, err)
			}
		}
	}
}

func TestDecodeNarrowings(t *testing.T) {
	for _, d := range narrowedCorpus {
		if msg, err := decodeReference([]byte(d.xml)); err != nil && !errors.As(err, new(*Fault)) {
			t.Errorf("%s: the reference rejects it too (%v); it belongs in rejectCorpus", d.name, err)
		} else if msg, err = Decode([]byte(d.xml)); !errors.Is(err, ErrNotSOAP) {
			t.Errorf("%s: Decode gave %s, want ErrNotSOAP", d.name, render(msg, err))
		}
	}
}

// genDoc writes a random document shaped like an envelope: the right
// elements in mostly the right places, with the wrong ones, other
// prefixes, redeclarations, attributes, mixed content and every kind of
// character data thrown in often enough that the positional rules of the
// two decoders meet all their corners.
type genDoc struct {
	rng *rand.Rand
	b   strings.Builder
}

func (g *genDoc) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

func (g *genDoc) chars() {
	for n := g.rng.Intn(4); n > 0; n-- {
		switch g.rng.Intn(12) {
		case 0:
			g.b.WriteString("<![CDATA[" + g.pick("", "x", "a<b&c", "l1\r\nl2", "]] >", "\r") + "]]>")
		case 1:
			g.b.WriteString("<!--" + g.pick("", " c ", "<a>", "&bogus;") + "-->")
		case 2:
			g.b.WriteString(g.pick("&amp;", "&lt;", "&gt;", "&apos;", "&quot;", "&#65;", "&#x41;", "&#13;", "&#xD800;", "&#10;"))
		case 3:
			g.b.WriteString(g.pick("\r\n", "\r", "\n", "\t", " ", "]]", "]", ">", "é", "大"))
		case 4:
			if g.rng.Intn(40) == 0 {
				g.b.WriteString(g.pick("&bogus;", "&", "]]>", "\x01", "\xff", "&#0;", "<?pi?>")) // refused
			}
		default:
			g.b.WriteString(g.pick("v", "1", "text", "a b"))
		}
	}
}

func (g *genDoc) element(depth int) {
	var name string
	switch depth {
	case 1:
		name = g.pick("soapenv:Envelope", "soapenv:Envelope", "soapenv:Envelope", "soapenv:Envelope", "e:Envelope", "e:Envelope", "Envelope", "soapenv:Body")
	case 2:
		name = g.pick("soapenv:Header", "soapenv:Body", "soapenv:Body", "soapenv:Body", "e:Body", "Body", "Header", "o:Body", "soapenv:Other")
	case 3:
		name = g.pick("ns:op", "ns:op", "op", "op", "soapenv:Fault", "Fault", "Token", "ns:other", "q:undeclared")
	default:
		name = g.pick("a", "b", "ns:a", "faultcode", "faultstring", "faultactor", "detail", "soapenv:a")
	}
	g.b.WriteString("<" + name)
	if depth == 1 {
		for _, decl := range []string{`xmlns:soapenv="` + EnvelopeNS + `"`, `xmlns:e='` + EnvelopeNS + `'`, `xmlns:ns="urn:x"`, `xmlns:o="urn:o"`} {
			if g.rng.Intn(20) > 0 {
				g.b.WriteString(" " + decl)
			}
		}
	}
	for n := g.rng.Intn(6) - 2 - 2/depth; n > 0; n-- {
		q := g.pick(`"`, `'`)
		g.b.WriteString(g.pick(" ", "\n ", "  ") + g.pick(
			"xmlns:soapenv="+q+"urn:shadow"+q, "xmlns="+q+EnvelopeNS+q, "xmlns:ns="+q+"urn:a&amp;b"+q, "xmlns:q="+q+"urn:q"+q,
			"xmlns="+q+q, "xmlns="+q+"urn:d"+q, "t="+q+"x > y"+q, "soapenv:mustUnderstand="+q+"1"+q, "xsi:type = "+q+"xsd:string"+q,
			"t="+q+"a\r\nb&#9;"+q))
	}
	if g.rng.Intn(8) == 0 {
		g.b.WriteString(g.pick("/>", " />"))
		return
	}
	g.b.WriteString(g.pick(">", ">", " >"))
	g.chars()
	if depth < 6 {
		for n := g.rng.Intn(4-depth/3) + 2/depth; n > 0; n-- {
			g.element(depth + 1)
			g.chars()
		}
	}
	if g.rng.Intn(200) == 0 {
		name = "mismatch"
	}
	g.b.WriteString("</" + name + g.pick(">", ">", " >"))
}

// TestDecodeMatchesReferenceOnGeneratedDocuments is the differential rule
// of FuzzDecode over documents the mutator would take long to reach.
func TestDecodeMatchesReferenceOnGeneratedDocuments(t *testing.T) {
	g := genDoc{rng: rand.New(rand.NewSource(16))}
	accepted := 0
	for i := 0; i < 30000; i++ {
		g.b.Reset()
		g.b.WriteString(g.pick("", "", xml.Header, `<?xml version="1.0"?>`, "<!-- c -->", "\n"))
		g.element(1)
		g.b.WriteString(g.pick("", "", "", "\n", "\r\n", "<!-- c -->", " x"))
		data := []byte(g.b.String())
		msg, err := Decode(data)
		refMsg, refErr := decodeReference(data)
		if refErr != nil && !errors.As(refErr, new(*Fault)) {
			if err == nil || errors.As(err, new(*Fault)) {
				t.Fatalf("%s\nthe reference rejects (%v), Decode gives %s", data, refErr, render(msg, err))
			}
			continue
		}
		if err != nil && !errors.As(err, new(*Fault)) {
			continue // a narrowing; TestDecodeNarrowings lists them
		}
		accepted++
		if !sameResult(msg, err, refMsg, refErr) {
			t.Fatalf("%s\nDecode:    %s\nreference: %s", data, render(msg, err), render(refMsg, refErr))
		}
	}
	if accepted < 3000 {
		t.Fatalf("only %d of 30000 generated documents were accepted by both; the generator no longer exercises the decoders", accepted)
	}
}

// awkward is what the property tests build values from: the five
// characters with predefined entities, the three white-space characters
// EscapeText writes as references, "]]>", CDATA and comment openers,
// multi-byte runes, and text that looks like a reference.
var awkward = []string{
	"<", ">", "&", "'", `"`, "\t", "\r", "\n", "\r\n", "]]>", "]]", "<![CDATA[", "<!--", "-->",
	"&amp;", "&#65;", " ", "a", "Z9", "é", "大", "😀", "\uFFFD", "=", "/", "?>",
}

func awkwardString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(awkward[rng.Intn(len(awkward))])
	}
	return b.String()
}

func awkwardMessage(rng *rand.Rand) *Message {
	m := &Message{Namespace: "urn:p:" + fmt.Sprint(rng.Intn(100)), Operation: fmt.Sprintf("op%d", rng.Intn(100))}
	for n := rng.Intn(12); n > 0; n-- {
		m.Params = append(m.Params, Param{Name: fmt.Sprintf("p%d", rng.Intn(6)), Value: awkwardString(rng)})
	}
	for n := rng.Intn(3); n > 0; n-- {
		if m.Headers == nil {
			m.Headers = map[string]string{}
		}
		m.Headers[fmt.Sprintf("H%d", rng.Intn(4))] = awkwardString(rng)
	}
	return m
}

// TestEncodeBytesUnchanged: the envelopes Encode and EncodeFault write
// are the ones they wrote before the encoder was rewritten, they decode
// identically under both decoders, and the values survive the trip.
func TestEncodeBytesUnchanged(t *testing.T) {
	if xmlHeader != xml.Header {
		t.Fatalf("xmlHeader %q, encoding/xml's %q", xmlHeader, xml.Header)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		m := awkwardMessage(rng)
		env, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeReference(m); !bytes.Equal(env, want) {
			t.Fatalf("Encode(%+v):\n%s\nbefore:\n%s", m, env, want)
		}
		got, err := Decode(env)
		ref, refErr := decodeReference(env)
		if !sameResult(got, err, ref, refErr) {
			t.Fatalf("%s\nDecode:    %s\nreference: %s", env, render(got, err), render(ref, refErr))
		}
		if err != nil || got.Operation != m.Operation || got.Namespace != m.Namespace ||
			!reflect.DeepEqual(got.Params, m.Params) || !(len(m.Headers) == 0 && len(got.Headers) == 0 || reflect.DeepEqual(got.Headers, m.Headers)) {
			t.Fatalf("round trip of %+v gave %s", m, render(got, err))
		}

		f := &Fault{Code: awkwardString(rng), String: awkwardString(rng), Actor: awkwardString(rng), Detail: awkwardString(rng)}
		env = EncodeFault(f)
		if want := encodeFaultReference(f); !bytes.Equal(env, want) {
			t.Fatalf("EncodeFault(%+v):\n%s\nbefore:\n%s", f, env, want)
		}
		got, err = Decode(env)
		ref, refErr = decodeReference(env)
		var back *Fault
		if !sameResult(got, err, ref, refErr) || !errors.As(err, &back) || *back != *f {
			t.Fatalf("%s\nDecode:    %s\nreference: %s", env, render(got, err), render(ref, refErr))
		}
	}
}

// TestDecodedMessageDoesNotAliasInput: Decode's substrings are of its
// own copy, so the caller may reuse the bytes it passed.
func TestDecodedMessageDoesNotAliasInput(t *testing.T) {
	env, _ := Encode(&Message{Namespace: "urn:x", Operation: "op", Params: []Param{{Name: "a", Value: "value"}}})
	msg, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range env {
		env[i] = 'X'
	}
	if got := render(msg, nil); got != `op{urn:x} a="value"` {
		t.Fatalf("after overwriting the input: %s", got)
	}
}

func hotService() *Service {
	ticket := []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString}}
	svc := NewService(wsdl.ServiceDef{
		Name: "pi", Namespace: "urn:onserve:pi",
		Operations: []wsdl.OperationDef{
			{Name: "execute", Params: []wsdl.ParamDef{{Name: "digits", Type: wsdl.TypeInt}}},
			{Name: "wait", Params: ticket},
		},
	})
	svc.MustBind("execute", func(*Request) (string, error) { return "inv-000001-5f3a9c", nil })
	svc.MustBind("wait", func(*Request) (string, error) { return "3.14159\n", nil })
	return svc
}

// discardWriter is a ResponseWriter that keeps nothing, so what
// TestHotDoorAllocations counts is the handler's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestHotDoorAllocations bounds what the SOAP door allocates for the two
// envelopes every invocation of a generated service sends. Decode makes
// three objects — the string copy of the body, the Message, its Params
// (51 on encoding/xml) — and the ceiling of six leaves room for a header
// entry: the Headers map and its bucket. One wait round trip through
// ServeHTTP measures 11 (62 at the parent): the test's own NopCloser,
// statusWriter, the body buffer, Decode's three, the Args map's two, the
// Request, and Content-Type's []string; the reply adds none. The ceiling
// of 12 covers the build-buffer pool shedding a quarter of its Puts
// under -race.
func TestHotDoorAllocations(t *testing.T) {
	execute, _ := Encode(&Message{Namespace: "urn:onserve:pi", Operation: "execute", Params: []Param{{Name: "digits", Value: "1000"}}})
	wait, _ := Encode(&Message{Namespace: "urn:onserve:pi", Operation: "wait", Params: []Param{{Name: "ticket", Value: "inv-000001-5f3a9c"}}})
	for name, env := range map[string][]byte{"execute": execute, "wait": wait} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := Decode(env); err != nil {
				t.Fatal(err)
			}
		}); n > 6 {
			t.Errorf("Decode(%s) allocates %v objects, want at most 6", name, n)
		}
	}

	srv := NewServer(nil, metrics.Cost{})
	srv.Deploy(hotService())
	body := bytes.NewReader(wait)
	req := httptest.NewRequest(http.MethodPost, "/services/pi", body)
	w := &discardWriter{header: http.Header{}}
	const ceiling = 12
	if n := testing.AllocsPerRun(200, func() {
		body.Reset(wait)
		req.Body, req.ContentLength = io.NopCloser(body), int64(len(wait))
		delete(w.header, "Content-Type")
		w.status = 0
		srv.ServeHTTP(w, req)
		if w.status != 0 {
			t.Fatalf("status %d", w.status)
		}
	}); n > ceiling {
		t.Errorf("one wait round trip through ServeHTTP allocates %v objects, want at most %d", n, ceiling)
	}
}

// TestOversizeRequestRefusedUnread: a request that declares more than
// MaxRequestBytes gets the 413 fault and none of its body is read.
func TestOversizeRequestRefusedUnread(t *testing.T) {
	srv := NewServer(nil, metrics.Cost{})
	srv.Deploy(hotService())
	body := &countingReader{}
	req := httptest.NewRequest(http.MethodPost, "/services/pi", body)
	req.ContentLength = MaxRequestBytes + 1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var f *Fault
	if _, err := Decode(rec.Body.Bytes()); !errors.As(err, &f) || f.Code != FaultClient || f.String != "request too large" {
		t.Fatalf("reply %s: %v", rec.Body.Bytes(), err)
	}
	if body.n != 0 {
		t.Fatalf("%d body bytes read before refusing", body.n)
	}
	if st := srv.Stats(); len(st) != 1 || st[0].Requests != 1 || st[0].Faults != 1 {
		t.Fatalf("counters %+v", st)
	}
}

type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.n += len(p)
	return len(p), nil
}

// TestServerReplyBytes: what the server writes for a result and for a
// fault is what Encode and EncodeFault render.
func TestServerReplyBytes(t *testing.T) {
	srv := NewServer(nil, metrics.Cost{})
	svc := hotService()
	svc.MustBind("wait", func(req *Request) (string, error) {
		if req.Args["ticket"] == "bad" {
			return "", &Fault{Code: FaultClient, String: "no such <ticket>", Detail: "d & d"}
		}
		return "line 1\r\nline <2> & \"3\"\n", nil
	})
	srv.Deploy(svc)
	call := func(ticket string) *httptest.ResponseRecorder {
		env, _ := Encode(&Message{Namespace: "urn:onserve:pi", Operation: "wait", Params: []Param{{Name: "ticket", Value: ticket}}})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/services/pi", bytes.NewReader(env)))
		return rec
	}
	want := encodeReference(&Message{Namespace: "urn:onserve:pi", Operation: "waitResponse",
		Params: []Param{{Name: "return", Value: "line 1\r\nline <2> & \"3\"\n"}}})
	if rec := call("inv-1"); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Type") != "text/xml; charset=utf-8" {
		t.Fatalf("status %d, %v\n%s\nwant\n%s", rec.Code, rec.Header(), rec.Body.Bytes(), want)
	}
	want = encodeFaultReference(&Fault{Code: FaultClient, String: "no such <ticket>", Detail: "d & d"})
	if rec := call("bad"); rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d\n%s\nwant\n%s", rec.Code, rec.Body.Bytes(), want)
	}
}
