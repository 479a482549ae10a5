#!/bin/sh
# Tier-1 verification: vet, build, and the full test suite under the
# race detector. -short skips nothing today but leaves room for future
# long-haul tests to opt out of CI.
set -eux

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" "$unformatted" >&2
	exit 1
fi

# The submit hub and the pre-replicator were deleted end to end (PR 21,
# EXPERIMENTS.md "submit" and "placement" hold the measurements): no
# name of either comes back. cmd/bench is frozen and still names two of
# them in a comment (ROADMAP 4b). Nor does the poll hub as a setting
# (PR 24: it is push's fallback rung, chosen by core.New and by nothing
# else — EXPERIMENTS.md "pollhub" holds its last column), or the SOAP
# guard's private error writer (it answers through portal.WriteError).
if grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build 'SubmitHub|SubmitBatch|submit-batch|ReplicateTopK|ReplicateWorkers|ReplicateBudgetBytes|DrainReplicator|SubmitMany|PollHubShards|\.PollHub\b|PollHub:|writeGuardError' . ; then
	echo "a deleted name is back (see above)" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race -short ./...
# The invocation collectors (per-invocation pollers, the sharded poll
# hub, and the push collector — event streams racing cancels, watchdog
# kills, and the hub-fallback handover; the gridsim event bus fanning
# out under concurrent publishers), the submission front-end (coalesced
# staging, the stats singleflight), the WAL (the blobdb crash-recovery
# and stock-import suites, every-byte truncation sweeps, fault-injected
# close/fsync paths, and puts/gets racing the background compactor and
# Close), the chunked staging data
# plane (shared chunk stores, pipelined chunk PUTs), the shaped links
# under it, the tracing subsystem (one collector shared by every
# service, spans annotated from watchdog and poller concurrently,
# portal export under load), and the placement layer (parallel
# possession probes, TTL cache + singleflight — the agent carries the
# batched probe client), and the fleet
# gateway (concurrent bursts racing a mid-burst appliance kill and
# rejoin: health FSM transitions fed by the prober and by ask — the one
# place proxied traffic counts for or against a member — at once,
# gather's goroutines writing index-aligned replies, the bounded ticket
# table stored into by invokes while waits load from it, a tenancy-on
# failover replaying the catalogued upload under the uploader's key,
# the replicated UDDI view upserted by a proxied upload while reads of
# GET /gateway/uddi list it), the trust store (gatekeeper and GridFTP handlers verifying chains
# against one memo while a root is added), and the tenant control plane
# (concurrent admits racing quota
# release, key rotation mid-burst, DRR wakeups racing timeouts) are
# the concurrency hot spots, and the appliance package boots the two
# supported profiles end to end: run their packages fresh
# (-count=1 defeats the test cache) so cached "ok" lines can never
# mask a newly introduced race.
go test -race -count=1 ./internal/core ./internal/blobdb ./internal/cyberaide ./internal/gram ./internal/gridsim ./internal/gridftp ./internal/netsim ./internal/portal ./internal/soap ./internal/trace ./internal/gateway ./internal/tenant ./internal/appliance ./internal/xsec

# Fuzzers run their seed corpora as regular tests, but exercise the
# mutation engine briefly too: the admission edge parses attacker
# bytes (the key header) and evaluates attacker patterns (policy
# globs), so both must never panic.
go test -run='^$' -fuzz=FuzzKeyHeader -fuzztime=5s ./internal/tenant
go test -run='^$' -fuzz=FuzzPolicyMatch -fuzztime=5s ./internal/tenant
# The upload door decodes an attacker's multipart body by hand, and the
# fleet gateway routes that body by what the same walk says of it:
# FuzzUploadIdentity holds the routing identity to the form the appliance
# reads, FuzzRoutePath holds DecodeRoute to the identity (differential:
# equal, or both refuse).
go test -run='^$' -fuzz=FuzzUploadForm -fuzztime=5s ./internal/portal
go test -run='^$' -fuzz=FuzzUploadIdentity -fuzztime=5s ./internal/portal
go test -run='^$' -fuzz=FuzzRoutePath -fuzztime=5s ./internal/gateway
# The push collector stores output bytes taken from a gatekeeper's event
# frame, and both SOAP doors decode whatever envelope arrives — with a
# hand-written decoder that FuzzDecode holds, differentially, to the
# encoding/xml-based one it replaced (internal/soap/reference_test.go).
go test -run='^$' -fuzz=FuzzEventFrame -fuzztime=5s ./internal/gram
# ... and it decodes the frame's data with a hand-written walk that
# FuzzEventData holds, differentially, to json.Unmarshal.
go test -run='^$' -fuzz=FuzzEventData -fuzztime=5s ./internal/gram
# ... which is internal/flatjson's, held to encoding/json on its own too:
# whatever it accepts it decodes alike, and what json.Marshal writes from
# strings and integers it accepts.
go test -run='^$' -fuzz=FuzzWalkMatchesEncodingJSON -fuzztime=5s ./internal/flatjson
go test -run='^$' -fuzz=FuzzDecode -fuzztime=15s ./internal/soap
# jsdl.Marshal writes its document by hand and must stay byte-identical
# to encoding/xml's rendering of the same description.
go test -run='^$' -fuzz=FuzzMarshalMatchesEncodingXML -fuzztime=5s ./internal/jsdl
# So does the SOAP envelope writer's escaper, to xml.EscapeText.
go test -run='^$' -fuzz=FuzzEscapeMatchesEncodingXML -fuzztime=5s ./internal/soap
# A transfer reads the stored executable as a stream (blobdb's
# Open().Reader()); FuzzStoredReader holds it, read in pieces of any size,
# to the materialised Get().Blob.
go test -run='^$' -fuzz=FuzzStoredReader -fuzztime=5s ./internal/blobdb
# An upload's file part reaches the gsh parser in whatever pieces the
# socket delivers: FuzzScannerSplits holds any split of a program into
# Writes to the one-Write parse (lines, line numbers, Program, error),
# and that to a reference walk over the program held whole.
go test -run='^$' -fuzz=FuzzScannerSplits -fuzztime=5s ./internal/gsh

# Allocation guard, deterministic (object and byte counts, no timing):
# a blob-cache hit costs the same for 1 KB and 1 MB, a hot invocation
# of a staged 1 MB executable allocates no object of its size and a cold
# one — streamed into one PUT, or shipped as the stored gzip in chunks —
# under a quarter of it, publishing one allocates the stream its row keeps
# and under a quarter of it beside that, and the SOAP door decodes an invocation's
# envelope in three objects and serves one in eleven, a signed submit
# costs at most 24 objects, the three event frames of a hot invocation 10
# and the gateway's proxy hop 16. All ran above; run them fresh and without the race detector's own
# allocations so a regression reads as a number, not as noise.
go test -count=1 -run 'TestGetHitAllocationIndependentOfBlobSize|TestHotInvokeAllocatesNoExecutableSizedObject|TestColdStageAllocatesNoExecutableSizedObject|TestUploadAllocatesNoRawSizedObject|TestHotDoorAllocations|TestSubmitAllocations|TestHotOpFrameDecodeAllocations|TestForwardAllocations' ./internal/blobdb ./internal/core ./internal/soap ./internal/gram ./internal/gateway

# bench-smoke: cmd/bench is a module of its own, so nothing above reaches
# it, yet it compiles against internal/... by exported name. Vet it and
# run its tests (4 s) so a signature it uses cannot change unnoticed.
# It matters twice since PR 24: profiles.go writes appliance.Config{...}
# as keyed literals, and this is what proves the alias of core.Config
# still satisfies them, field by field.
go vet -C cmd/bench .
go test -C cmd/bench .

# experiments-smoke: the study table end to end — flags built from it,
# one figure run, its artifact written (into a directory that is thrown
# away: results/ is checked in).
smoke=$(mktemp -d)
go run ./cmd/experiments -fig 6 -out "$smoke"
test -s "$smoke/fig6.csv"
rm -rf "$smoke"

# Not a gate, four numbers: the non-test lines of the packages ROADMAP
# item 4 wants smaller (internal/appliance counted with them, so a
# declaration moving between core and appliance reads as zero), of the
# evaluation harness alone, and of the front door (gateway, portal and
# its one client's CLI), counted the same way every time so each PR's
# CHANGES.md line can quote them; and how many fields the one knob
# struct has, as TestConfigSurface logs it.
set +x
count() { find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
fields=$(go test -count=1 -v -run '^TestConfigSurface$' ./internal/appliance | grep -o 'appliance.Config: [0-9]* fields' || true)
echo "non-test Go lines, internal/core + internal/appliance + internal/blobdb + internal/experiments: $(count internal/core internal/appliance internal/blobdb internal/experiments) (without internal/appliance: $(count internal/core internal/blobdb internal/experiments), ROADMAP item 4: <= 8000); internal/experiments + cmd/experiments: $(count internal/experiments cmd/experiments); internal/gateway + internal/portal + cmd/onserve-cli: $(count internal/gateway internal/portal cmd/onserve-cli); $fields"
