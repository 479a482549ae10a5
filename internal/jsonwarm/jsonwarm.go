// Package jsonwarm is the one list of the types this repository's
// services send through encoding/json, so that internal/bubble can build
// their encoders before it starts a bubble. encoding/json builds a type's
// encoder on the type's first use and parks every other first user on a
// sync.WaitGroup meanwhile. go1.24's synctest takes a goroutine waiting
// on a WaitGroup for durably blocked, so a bubble whose goroutine waits
// on another bubble's build either moves its clock on or reports a
// deadlock, though the builder is only busy. Each package lists the types
// it encodes next to them, in an init; a type is listed by a zero value
// of the static type it is encoded as (a pointer or a slice is a type of
// its own). TestListCoversEncodedTypes type-checks internal/ and fails
// when a type sent through encoding/json is not on the list.
package jsonwarm

import (
	"encoding/json"
	"sync"
)

var (
	mu     sync.Mutex
	listed []any
	warmed int // listed[:warmed] are encoded
)

// List adds zero values of types to the list.
func List(zero ...any) {
	mu.Lock()
	listed = append(listed, zero...)
	mu.Unlock()
}

// Warm encodes each listed value not encoded yet. Call it outside any
// bubble.
func Warm() {
	mu.Lock()
	defer mu.Unlock()
	for ; warmed < len(listed); warmed++ {
		json.Marshal(listed[warmed])
	}
}
