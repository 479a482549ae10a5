// Package uddi implements the service registry of the access layer: "All
// the created Web services are published in an UDDI registry together
// with the descriptions, the WSDL files, and the service endpoint to make
// it easier to find a service" (paper §V). It is the jUDDI substitute:
// a businessService store with publish/find/get/delete operations exposed
// both as a native Go API and as a SOAP service (the wire form the
// paper's clients would use).
//
// Name patterns in find follow UDDI's approximate-match convention: '%'
// matches any run of characters.
package uddi

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonwarm"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// Errors.
var (
	ErrNotFound  = errors.New("uddi: no such service")
	ErrDuplicate = errors.New("uddi: service name already published")
	ErrBadRecord = errors.New("uddi: record is missing required fields")
)

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(Record{}, []Record{}) }

// Record is one published businessService.
type Record struct {
	Key         string    `json:"key"`
	Name        string    `json:"name"`
	Description string    `json:"description"`
	WSDLURL     string    `json:"wsdl_url"`
	Endpoint    string    `json:"endpoint"`
	Owner       string    `json:"owner"`
	PublishedAt time.Time `json:"published_at"`
}

// Registry is the in-memory registry. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byKey  map[string]*Record
	byName map[string]*Record
}

// NewRegistry returns an empty registry. Its parameter is ignored:
// cmd/bench, frozen until its next revision (ROADMAP item 4(a)), still
// passes nil there.
func NewRegistry(_ any) *Registry {
	return &Registry{
		byKey:  make(map[string]*Record),
		byName: make(map[string]*Record),
	}
}

// Publish registers r and returns its assigned key. Names are unique;
// republishing an existing name fails with ErrDuplicate (callers must
// Delete first, mirroring jUDDI's save semantics with unique names).
func (g *Registry) Publish(r Record) (string, error) {
	if r.Name == "" || r.Endpoint == "" {
		return "", ErrBadRecord
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, exists := g.byName[r.Name]; exists {
		return "", fmt.Errorf("%w: %q", ErrDuplicate, r.Name)
	}
	r.Key = newKey()
	r.PublishedAt = time.Now()
	rec := r
	g.byKey[rec.Key] = &rec
	g.byName[rec.Name] = &rec
	return rec.Key, nil
}

// Get returns the record for key.
func (g *Registry) Get(key string) (Record, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if r, ok := g.byKey[key]; ok {
		return *r, nil
	}
	return Record{}, fmt.Errorf("%w: key %q", ErrNotFound, key)
}

// GetByName returns the record published under name.
func (g *Registry) GetByName(name string) (Record, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if r, ok := g.byName[name]; ok {
		return *r, nil
	}
	return Record{}, fmt.Errorf("%w: name %q", ErrNotFound, name)
}

// Find returns records whose name matches pattern ('%' wildcard),
// sorted by name. An empty pattern matches everything.
func (g *Registry) Find(pattern string) []Record {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Record
	for _, r := range g.byName {
		if MatchPattern(pattern, r.Name) {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes the record for key.
func (g *Registry) Delete(key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.byKey[key]
	if !ok {
		return fmt.Errorf("%w: key %q", ErrNotFound, key)
	}
	delete(g.byKey, key)
	delete(g.byName, r.Name)
	return nil
}

// Len reports how many services are published.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.byKey)
}

// MatchPattern implements UDDI approximate matching: '%' matches any run
// of characters (case-insensitive, as jUDDI defaults to).
func MatchPattern(pattern, name string) bool {
	if pattern == "" {
		return true
	}
	p := strings.ToLower(pattern)
	n := strings.ToLower(name)
	parts := strings.Split(p, "%")
	// No wildcard: exact match.
	if len(parts) == 1 {
		return p == n
	}
	if !strings.HasPrefix(n, parts[0]) {
		return false
	}
	n = n[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		if part == "" {
			continue
		}
		i := strings.Index(n, part)
		if i < 0 {
			return false
		}
		n = n[i+len(part):]
	}
	last := parts[len(parts)-1]
	return strings.HasSuffix(n, last)
}

func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("uddi: entropy unavailable: " + err.Error())
	}
	// uddi:-style key for flavour.
	return "uddi:" + hex.EncodeToString(b[:4]) + "-" + hex.EncodeToString(b[4:8]) + "-" + hex.EncodeToString(b[8:])
}

// Namespace is the SOAP namespace of the registry service.
const Namespace = "urn:repro:uddi"

// ServiceName is the name the registry deploys under in the SOAP server.
const ServiceName = "UDDIRegistry"

// SOAPService exposes the registry as a SOAP service with the inquiry and
// publish operations a remote client needs. Results that are lists travel
// as JSON arrays inside the <return> element.
func (g *Registry) SOAPService() *soap.Service {
	def := wsdl.ServiceDef{
		Name:      ServiceName,
		Namespace: Namespace,
		Doc:       "UDDI-style registry: publish and discover generated Grid Web services",
		Operations: []wsdl.OperationDef{
			{
				Name: "publish",
				Doc:  "Publish a service; returns its key",
				Params: []wsdl.ParamDef{
					{Name: "name", Type: wsdl.TypeString},
					{Name: "description", Type: wsdl.TypeString},
					{Name: "wsdlURL", Type: wsdl.TypeString},
					{Name: "endpoint", Type: wsdl.TypeString},
					{Name: "owner", Type: wsdl.TypeString},
				},
			},
			{
				Name:   "find",
				Doc:    "Find services by name pattern ('%' wildcard); returns a JSON array",
				Params: []wsdl.ParamDef{{Name: "pattern", Type: wsdl.TypeString}},
			},
			{
				Name:   "get",
				Doc:    "Get one service record by key; returns a JSON object",
				Params: []wsdl.ParamDef{{Name: "key", Type: wsdl.TypeString}},
			},
			{
				Name:   "delete",
				Doc:    "Delete a service record by key",
				Params: []wsdl.ParamDef{{Name: "key", Type: wsdl.TypeString}},
			},
		},
	}
	svc := soap.NewService(def)
	svc.MustBind("publish", func(req *soap.Request) (string, error) {
		key, err := g.Publish(Record{
			Name:        req.Args["name"],
			Description: req.Args["description"],
			WSDLURL:     req.Args["wsdlURL"],
			Endpoint:    req.Args["endpoint"],
			Owner:       req.Args["owner"],
		})
		if err != nil {
			return "", &soap.Fault{Code: soap.FaultClient, String: err.Error()}
		}
		return key, nil
	})
	svc.MustBind("find", func(req *soap.Request) (string, error) {
		recs := g.Find(req.Args["pattern"])
		b, err := json.Marshal(recs)
		if err != nil {
			return "", err
		}
		return string(b), nil
	})
	svc.MustBind("get", func(req *soap.Request) (string, error) {
		rec, err := g.Get(req.Args["key"])
		if err != nil {
			return "", &soap.Fault{Code: soap.FaultClient, String: err.Error()}
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return "", err
		}
		return string(b), nil
	})
	svc.MustBind("delete", func(req *soap.Request) (string, error) {
		if err := g.Delete(req.Args["key"]); err != nil {
			return "", &soap.Fault{Code: soap.FaultClient, String: err.Error()}
		}
		return "ok", nil
	})
	return svc
}

// DecodeRecords parses the JSON array returned by the find operation.
func DecodeRecords(s string) ([]Record, error) {
	var out []Record
	if err := json.Unmarshal([]byte(s), &out); err != nil {
		return nil, fmt.Errorf("uddi: decode records: %w", err)
	}
	return out, nil
}
