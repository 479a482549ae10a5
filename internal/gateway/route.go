package gateway

import (
	"errors"
	"fmt"
	"net/http"
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
	// name the portal will derive from the uploaded file.
	KindUpload
	// KindInvoke starts an invocation: POST /api/invoke, keyed by the
	// target service.
	KindInvoke
	// KindService reads one existing service: /api/service, /api/client.
	KindService
	// KindSOAP is a generated-service call: /services/<name> (POST SOAP
	// envelope or GET ?wsdl), keyed like KindService.
	KindSOAP
	// KindDelete removes a service: POST /api/delete.
	KindDelete
	// KindTicket follows an invocation ticket to the appliance that issued
	// it, keyed by the service the ticket names (core.TicketService):
	// /api/status, /api/output, /api/outfile, /api/wait, /api/cancel,
	// /api/trace[/<ticket>], /trace.
	KindTicket
	// KindServices scatter-gathers /api/services across the fleet.
	KindServices
	// KindStats scatter-gathers /api/stats and prepends the gateway block.
	KindStats
	// KindAudit scatter-gathers /api/audit across the fleet and merges
	// the per-shard tenancy audit records newest-first.
	KindAudit
	// KindRegistry scatter-gathers /api/registry and answers the union:
	// as JSON on /api/registry, on the portal's page on /registry.
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
	Kind Kind
	// Service is what a keyed kind addresses, or the service a ticket
	// names, and its consistent-hash key: names are unique fleet-wide, so
	// the name alone places a service, and every request about it finds
	// the shard its upload went to without asking who owns it.
	Service string
	query   string // KindUpload: the raw query, part of the upload a failover replays
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
		// service than the appliance will publish.
		fileName, err := portal.UploadIdentity(contentType, body)
		if err != nil {
			return Route{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		service, err := core.ServiceNameFor(fileName)
		if err != nil {
			return Route{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		return Route{Kind: KindUpload, Service: service, query: rawQuery}, nil
	case "/api/invoke":
		if method != http.MethodPost {
			return Route{Kind: KindAny}, nil
		}
		// The portal's own reading of the body: the route cannot name
		// another service than the appliance will invoke.
		service, err := portal.InvokeService(body)
		if err != nil {
			return Route{}, fmt.Errorf("%w: invoke body: %v", errBadRequest, err)
		}
		return Route{Kind: KindInvoke, Service: service}, nil
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
		return ticketRoute(ticket), nil
	case "/api/services":
		return Route{Kind: KindServices}, nil
	case "/api/stats":
		return Route{Kind: KindStats}, nil
	case "/api/audit":
		return Route{Kind: KindAudit}, nil
	case "/registry", "/api/registry":
		return Route{Kind: KindRegistry}, nil
	}
	if t, ok := strings.CutPrefix(path, "/api/trace/"); ok {
		return ticketRoute(t), nil
	}
	if name, _, _ := soap.ServiceName(path); name != "" {
		return Route{Kind: KindSOAP, Service: name}, nil
	}
	return Route{Kind: KindAny}, nil
}

// ticketRoute keys a ticket by the service it names. A ticket that names
// none is any appliance's to answer, as a lone appliance would.
func ticketRoute(ticket string) Route {
	if service, ok := core.TicketService(ticket); ok {
		return Route{Kind: KindTicket, Service: service}
	}
	return Route{Kind: KindAny}
}

// queryValue returns key's value in rawQuery; a query string that does
// not parse is the caller's 400.
func queryValue(rawQuery, key string) (string, error) {
	v, err := portal.QueryGet(rawQuery, key)
	if err != nil {
		return "", fmt.Errorf("%w: query: %v", errBadRequest, err)
	}
	return v, nil
}
