package appliance

import "net/http"

// NewRoot is the appliance's dispatch over services and portal.
func NewRoot(services, portal http.Handler) http.Handler { return newRoot(services, portal) }

// GuardServices is guardServices, for the door's own tests.
var GuardServices = guardServices
