package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/soap"
)

// Kind classifies how the gateway dispatches one portal request.
type Kind int

const (
	// KindAny has no placement affinity: any healthy appliance serves it
	// (the home page, the SOAP index, unrecognised paths).
	KindAny Kind = iota
	// KindUpload creates a service: POST /upload, keyed by the service
	// name the portal will derive from the uploaded file plus the owner.
	KindUpload
	// KindInvoke starts an invocation: POST /api/invoke, keyed by the
	// target service (owner resolved from the replicated UDDI view).
	KindInvoke
	// KindService reads one existing service: /api/service, /api/client.
	KindService
	// KindSOAP is a generated-service call: /services/<name> (POST SOAP
	// envelope or GET ?wsdl), keyed like KindService.
	KindSOAP
	// KindDelete removes a service: POST /api/delete.
	KindDelete
	// KindTicket follows an invocation ticket back to the appliance that
	// issued it: /api/status, /api/output, /api/outfile, /api/wait,
	// /api/cancel, /api/trace[/<ticket>], /trace.
	KindTicket
	// KindServices scatter-gathers /api/services across the fleet.
	KindServices
	// KindStats scatter-gathers /api/stats and prepends the gateway block.
	KindStats
	// KindAudit scatter-gathers /api/audit across the fleet and merges
	// the per-shard tenancy audit records newest-first.
	KindAudit
	// KindRegistry serves the replicated UDDI view locally.
	KindRegistry
)

func (k Kind) String() string {
	switch k {
	case KindUpload:
		return "upload"
	case KindInvoke:
		return "invoke"
	case KindService:
		return "service"
	case KindSOAP:
		return "soap"
	case KindDelete:
		return "delete"
	case KindTicket:
		return "ticket"
	case KindServices:
		return "services"
	case KindStats:
		return "stats"
	case KindAudit:
		return "audit"
	case KindRegistry:
		return "registry"
	default:
		return "any"
	}
}

// Route is one decoded dispatch decision.
type Route struct {
	Kind    Kind
	Service string // keyed kinds: the service the request addresses
	Owner   string // KindUpload only; other kinds resolve it via the view
	Ticket  string // KindTicket: may be empty (the appliance will 404)
	query   string // KindUpload: the raw query, part of the upload a failover replays
}

// Keyed reports whether the route shards by consistent hash.
func (rt Route) Keyed() bool {
	switch rt.Kind {
	case KindUpload, KindInvoke, KindService, KindSOAP, KindDelete:
		return true
	}
	return false
}

// Key is the consistent-hash routing key: "service|owner". The owner
// half co-locates all of one owner's services (grid sessions, cached
// stats, submit batches, chunk possession) on one shard when the view
// knows it; the composition is deterministic in the route fields, so
// two gateways with converged views can never disagree on placement.
func (rt Route) Key(owner string) string {
	if owner == "" {
		owner = rt.Owner
	}
	return rt.Service + "|" + owner
}

// errBadRequest wraps decode failures the gateway answers with 400
// without consulting any upstream (parse-before-proxy).
var errBadRequest = errors.New("gateway: bad request")

// DecodeRoute classifies one request from its method, already-decoded
// URL path, raw query, content type, and (for POSTs) fully buffered
// body. It is a total function: any input yields either a Route or an
// error (never a panic), and identical inputs always yield identical
// routes — the property that makes cross-shard misroutes impossible and
// that FuzzRoutePath pins.
func DecodeRoute(method, path, rawQuery, contentType string, body []byte) (Route, error) {
	switch path {
	case "/upload":
		if method != http.MethodPost {
			return Route{Kind: KindAny}, nil // the portal answers 405
		}
		// The portal's own walk of the form: the route cannot name another
		// service or owner than the appliance will publish under.
		fileName, owner, err := portal.UploadIdentity(contentType, rawQuery, body)
		if err != nil {
			return Route{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		service, err := core.ServiceNameFor(fileName)
		if err != nil {
			return Route{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		return Route{Kind: KindUpload, Service: service, Owner: owner, query: rawQuery}, nil
	case "/api/invoke":
		if method != http.MethodPost {
			return Route{Kind: KindAny}, nil
		}
		var req portal.InvokeRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return Route{}, fmt.Errorf("%w: invoke body: %v", errBadRequest, err)
		}
		return Route{Kind: KindInvoke, Service: req.Service}, nil
	case "/api/service", "/api/client":
		name, err := queryValue(rawQuery, "name")
		if err != nil {
			return Route{}, err
		}
		return Route{Kind: KindService, Service: name}, nil
	case "/api/delete":
		name, err := queryValue(rawQuery, "name")
		if err != nil {
			return Route{}, err
		}
		return Route{Kind: KindDelete, Service: name}, nil
	case "/api/status", "/api/output", "/api/outfile", "/api/wait", "/api/cancel", "/api/trace", "/trace":
		ticket, err := queryValue(rawQuery, "ticket")
		if err != nil {
			return Route{}, err
		}
		return Route{Kind: KindTicket, Ticket: ticket}, nil
	case "/api/services":
		return Route{Kind: KindServices}, nil
	case "/api/stats":
		return Route{Kind: KindStats}, nil
	case "/api/audit":
		return Route{Kind: KindAudit}, nil
	case "/registry":
		return Route{Kind: KindRegistry}, nil
	}
	if t, ok := strings.CutPrefix(path, "/api/trace/"); ok {
		return Route{Kind: KindTicket, Ticket: t}, nil
	}
	if name, _, _ := soap.ServiceName(path); name != "" {
		return Route{Kind: KindSOAP, Service: name}, nil
	}
	return Route{Kind: KindAny}, nil
}

// queryValue parses rawQuery and returns key's value; a query string
// that does not parse is the caller's 400.
func queryValue(rawQuery, key string) (string, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return "", fmt.Errorf("%w: query: %v", errBadRequest, err)
	}
	return q.Get(key), nil
}
