// Package jsdl implements the job description language of the
// reproduction's JSE model. "Grid users specify job submission with some
// job description language, then submit the jobs to Grid resources for
// execution" (paper §II-B); onServe generates these descriptions from Web
// service invocations ("a job description is generated by using the
// specified parameters and the name of the executable", §VII-B).
//
// Descriptions serialise to a JSDL-flavoured XML document for the wire.
package jsdl

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Limits.
const (
	MaxCPUs     = 4096
	MaxWallTime = 7 * 24 * time.Hour
	MaxArgs     = 256
)

// Errors.
var (
	ErrInvalid = errors.New("jsdl: invalid job description")
	ErrNotJSDL = errors.New("jsdl: document is not a job description")
)

// Description declares one Grid job.
type Description struct {
	// Name is a human label, not an identifier.
	Name string
	// Owner is the distinguished name of the submitting identity.
	Owner string
	// ID, when set, names the job at its site (up to 64 digits and
	// lower-case letters), so a submit sent again finds the job it started.
	// Empty lets the site assign job-NNNNNN, which no ID can spell.
	ID string
	// Executable names the staged file to run (gsh program).
	Executable string
	// Arguments are passed to the executable as named parameters.
	Arguments map[string]string
	// Site requests a specific site; empty lets the broker choose.
	Site string
	// CPUs requested; zero means one.
	CPUs int
	// WallTime limit; zero means the site default.
	WallTime time.Duration
	// StageIn lists additional staged files the job needs present.
	StageIn []string
}

// Normalize fills defaults in place.
func (d *Description) Normalize() {
	if d.CPUs == 0 {
		d.CPUs = 1
	}
}

// Validate reports whether the description is submittable.
func (d *Description) Validate() error {
	if d.Executable == "" {
		return fmt.Errorf("%w: executable required", ErrInvalid)
	}
	if d.Owner == "" {
		return fmt.Errorf("%w: owner required", ErrInvalid)
	}
	if len(d.ID) > 64 || strings.Trim(d.ID, "0123456789abcdefghijklmnopqrstuvwxyz") != "" {
		return fmt.Errorf("%w: id %q is not up to 64 digits and lower-case letters", ErrInvalid, d.ID)
	}
	if d.CPUs < 0 || d.CPUs > MaxCPUs {
		return fmt.Errorf("%w: cpus %d out of range", ErrInvalid, d.CPUs)
	}
	if d.WallTime < 0 || d.WallTime > MaxWallTime {
		return fmt.Errorf("%w: walltime %v out of range", ErrInvalid, d.WallTime)
	}
	if len(d.Arguments) > MaxArgs {
		return fmt.Errorf("%w: %d arguments exceed limit", ErrInvalid, len(d.Arguments))
	}
	for name := range d.Arguments {
		if name == "" {
			return fmt.Errorf("%w: empty argument name", ErrInvalid)
		}
	}
	return nil
}

// xmlDoc is the serialised form.
type xmlDoc struct {
	XMLName    xml.Name `xml:"JobDefinition"`
	Name       string   `xml:"JobIdentification>JobName,omitempty"`
	Owner      string   `xml:"JobIdentification>Owner"`
	ID         string   `xml:"JobIdentification>SubmissionID,omitempty"`
	Executable string   `xml:"Application>Executable"`
	Args       []xmlArg `xml:"Application>Argument"`
	Site       string   `xml:"Resources>CandidateHosts>HostName,omitempty"`
	CPUs       int      `xml:"Resources>TotalCPUCount"`
	WallTimeS  int64    `xml:"Resources>WallTimeLimitSeconds,omitempty"`
	StageIn    []string `xml:"DataStaging>FileName"`
}

type xmlArg struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// Marshal renders the description as XML: the document
// xml.MarshalIndent(&xmlDoc{...}, "", "  ") would produce, byte for byte
// (the gatekeeper parses these bytes and the recorded results were taken
// with them), written directly because the shape is fixed — eight fields,
// no reflection, one buffer. The quirks are encoding/xml's and are kept:
// an empty site or stage-in list still opens and closes its parent
// element.
func Marshal(d *Description) ([]byte, error) {
	dd := *d
	dd.Normalize()
	if err := dd.Validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1024) // a typical document is ~700 bytes
	b = append(b, xml.Header...)
	b = append(b, "<JobDefinition>\n  <JobIdentification>\n"...)
	if dd.Name != "" {
		b = element(b, "    <JobName>", dd.Name, "</JobName>\n")
	}
	b = element(b, "    <Owner>", dd.Owner, "</Owner>\n")
	if dd.ID != "" {
		b = element(b, "    <SubmissionID>", dd.ID, "</SubmissionID>\n")
	}
	b = append(b, "  </JobIdentification>\n  <Application>\n"...)
	b = element(b, "    <Executable>", dd.Executable, "</Executable>\n")
	var names [8]string
	for _, name := range sortedKeys(dd.Arguments, names[:]) {
		b = element(b, `    <Argument name="`, name, `">`)
		b = element(b, "", dd.Arguments[name], "</Argument>\n")
	}
	b = append(b, "  </Application>\n  <Resources>\n"...)
	if dd.Site != "" {
		b = element(b, "    <CandidateHosts>\n      <HostName>", dd.Site, "</HostName>\n    </CandidateHosts>\n")
	} else {
		b = append(b, "    <CandidateHosts></CandidateHosts>\n"...)
	}
	b = append(b, "    <TotalCPUCount>"...)
	b = strconv.AppendInt(b, int64(dd.CPUs), 10)
	b = append(b, "</TotalCPUCount>\n"...)
	if secs := int64(dd.WallTime / time.Second); secs != 0 {
		b = append(b, "    <WallTimeLimitSeconds>"...)
		b = strconv.AppendInt(b, secs, 10)
		b = append(b, "</WallTimeLimitSeconds>\n"...)
	}
	b = append(b, "  </Resources>\n"...)
	if len(dd.StageIn) == 0 {
		b = append(b, "  <DataStaging></DataStaging>\n"...)
	} else {
		b = append(b, "  <DataStaging>\n"...)
		for _, f := range dd.StageIn {
			b = element(b, "    <FileName>", f, "</FileName>\n")
		}
		b = append(b, "  </DataStaging>\n"...)
	}
	return append(b, "</JobDefinition>"...), nil
}

// element appends open, the escaped value, close. Printable ASCII without
// markup characters — nearly every value — is what xml.EscapeText would
// copy through unchanged; anything else is left to it.
func element(b []byte, open, value, close string) []byte {
	b = append(b, open...)
	plain := true
	for i := 0; i < len(value) && plain; i++ {
		c := value[i]
		plain = c >= 0x20 && c < 0x7f && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>'
	}
	if plain {
		b = append(b, value...)
	} else {
		var esc bytes.Buffer
		xml.EscapeText(&esc, []byte(value)) // a bytes.Buffer write cannot fail
		b = append(b, esc.Bytes()...)
	}
	return append(b, close...)
}

// Unmarshal parses a document produced by Marshal.
func Unmarshal(data []byte) (*Description, error) {
	var doc xmlDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotJSDL, err)
	}
	d := &Description{
		Name:       doc.Name,
		Owner:      doc.Owner,
		ID:         doc.ID,
		Executable: doc.Executable,
		Site:       doc.Site,
		CPUs:       doc.CPUs,
		WallTime:   time.Duration(doc.WallTimeS) * time.Second,
		StageIn:    doc.StageIn,
	}
	if len(doc.Args) > 0 {
		d.Arguments = make(map[string]string, len(doc.Args))
		for _, a := range doc.Args {
			d.Arguments[a.Name] = a.Value
		}
	}
	d.Normalize()
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotJSDL, err)
	}
	return d, nil
}

// sortedKeys returns m's keys sorted, in into[:0]: a caller's [8]string
// holds eight without an allocation.
func sortedKeys(m map[string]string, into []string) []string {
	keys := into[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
