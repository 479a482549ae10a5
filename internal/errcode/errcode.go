// Package errcode is the one error vocabulary of every hop: the closed set
// of codes an error reply names its cause by, the envelope that carries
// one over HTTP, and the one decoder every HTTP client reads it with. It
// imports only the standard library.
package errcode

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/jsonwarm"
)

// The codes: the JSON door's eleven (DESIGN §6), then four that tell
// apart the grid's replies that share a status.
const (
	BadRequest       = "bad_request"
	Unauthorized     = "unauthorized"
	Forbidden        = "forbidden"
	NotFound         = "not_found"
	NoSuchFile       = "no_such_file" // the job exists, not the output file asked for
	MethodNotAllowed = "method_not_allowed"
	TooLarge         = "too_large"
	RateLimited      = "rate_limited"   // retry once the owner's bucket refills
	QuotaExceeded    = "quota_exceeded" // retry once in-flight work drains
	BadGateway       = "bad_gateway"
	Internal         = "internal"
	NotStaged        = "not_staged" // gram: the executable is not at the site
	NotOwner         = "not_owner"  // gram: the job is another identity's
	NameTaken        = "name_taken" // another holds the name: a job's (gram), a service's (core)
	Conflict         = "conflict"   // gridftp: a commit names a chunk the site lacks
)

// byStatus is the code of a reply that names no more than its status (a
// door's own refusal, a stock server's reply); any other status's is
// Internal.
var byStatus = map[int]string{
	http.StatusBadRequest:            BadRequest,
	http.StatusUnauthorized:          Unauthorized,
	http.StatusForbidden:             Forbidden,
	http.StatusNotFound:              NotFound,
	http.StatusMethodNotAllowed:      MethodNotAllowed,
	http.StatusConflict:              Conflict,
	http.StatusRequestEntityTooLarge: TooLarge,
	http.StatusBadGateway:            BadGateway,
}

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(&Refusal{}) }

// A Refusal is an error reply: a handler returns it, and Write answers
// with its body, the envelope of every error reply. Code comes first: the
// JSON door's envelope was a map, whose keys encoding/json writes sorted.
type Refusal struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Msg    string `json:"error"`
}

// Refuse is the refusal of msg under status and the status's code.
func Refuse(status int, msg string) *Refusal {
	return &Refusal{Status: status, Code: forStatus(status), Msg: msg}
}

// Write answers with the refusal's envelope.
func (r *Refusal) Write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(r.Status)
	json.NewEncoder(w).Encode(r)
}

func forStatus(status int) string {
	if code, ok := byStatus[status]; ok {
		return code
	}
	return Internal
}

// Decode reads an error reply: the envelope's code and message, the
// status's code where the body names none, the body itself where it
// carries no message.
func Decode(status int, body []byte) (code, msg string) {
	var r Refusal
	if json.Unmarshal(body, &r) != nil {
		r = Refusal{}
	}
	if r.Code == "" {
		r.Code = forStatus(status)
	}
	if r.Msg == "" {
		r.Msg = string(body)
	}
	return r.Code, r.Msg
}

// Err is the error a client makes of a reply of an unexpected status: the
// sentinel its code (Decode's) stands for in sentinels, else fallback,
// with the status and the message.
func Err(status int, body []byte, sentinels map[string]error, fallback error) error {
	code, msg := Decode(status, body)
	sentinel, ok := sentinels[code]
	if !ok {
		sentinel = fallback
	}
	return fmt.Errorf("%w: http %d: %s", sentinel, status, msg)
}
