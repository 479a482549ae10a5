#!/bin/sh
# Tier-1 verification: vet, build, and the full test suite under the
# race detector. -short skips the two studies that boot many appliances
# or write hundreds of MB. Every simulated run — a study's rig, a test
# fixture, an example — executes in a testing/synctest bubble over
# in-process pipes. Inside one the time package's clock is virtual and
# the Go runtime moves it, to the earliest deadline, only once every
# goroutine of the bubble is durably blocked; a goroutine that can run
# holds it. So virtual time moves only by modelled cost, a figure reads
# the same on any host, with or without the race detector, a deadlock is
# a panic with every stack instead of a timeout, and a bubble ends only
# once every goroutine its rig started has exited. go1.24 compiles
# testing/synctest only under GOEXPERIMENT=synctest: exported here, so
# coverage and vet see the tagged files and no test binary runs its
# package again under it (internal/bubble's Main).
set -eux

cd "$(dirname "$0")"
export GOEXPERIMENT=synctest

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" "$unformatted" >&2
	exit 1
fi

# The submit hub and the pre-replicator were deleted end to end
# (EXPERIMENTS.md, "Knobs", quotes their last measurements): no name of
# either comes back. cmd/bench is frozen and still names two of them in
# a comment (ROADMAP 4b). Nor does the poll hub, as a setting or as code
# (a push worker whose stream is gone polls its own jobs; the same
# section keeps the hub's last column), or the SOAP guard's private error
# writer (it answers through portal.WriteError). Nor do the knob
# comparisons that each flipped one of Production's knobs against a
# baseline of its own, or their variant lists: the knobs study weighs
# every knob on the two profiles. Nor does a chunk size in the
# configuration: the appliance cuts at gridftp.DefaultChunkBytes. Nor does the gateway's replicated
# UDDI view, its pull loop or its endpoint: the ring keys on the service
# name alone, so nothing needs a service's owner. Nor does the gateway's
# active prober or its knobs: the requests it proxies are its health check.
# Nor does its ticket table, the invoke-reply parse that filled it, or its
# own stats endpoint: a ticket names its service, and /api/stats carries
# the gateway block. Nor do the three network knobs GridDial replaced, or
# an invocation state nothing ever entered. Nor does a counter's second
# declaration: each stats struct is its own store, behind a metrics.Block
# or its owner's lock. Nor does a race dilation or a dilation cap: the
# studies' clock steps itself, and host speed cannot reach virtual time.
# Nor does the dilated clock itself, or the per-clock pacing hook it
# needed, or the event clock that guessed from /proc when every goroutine
# was parked, or vtime at all, its hand-stepped clock or the watchdog type
# around one timer: every component calls the time package, which a
# bubble makes virtual, and the runtime knows when to move it. Nor does a
# setting nobody set (the proxy lifetime, the CA's validity, a site's
# default walltime are constants). Nor does the push worker's stash of
# frames that outran their job's registration, or its memory of reaped jobs:
# core registers an invocation under its job's name before the submit goes
# out, so a frame for a name no worker holds is dropped. Nor does a private
# copy of the error vocabulary (the portal's two switches, myproxy's text
# match, gram's and gridftp's writers and decoders): internal/errcode holds
# the codes, the envelope and the decoder, and core's causes table the
# sentinel → (status, code) rows.
if grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build '\.ProxyLifetime\b|ProxyLifetime:|\.CAValidity\b|CAValidity:|\.DefaultWallTime\b|DefaultWallTime:|SubmitHub|SubmitBatch|submit-batch|ReplicateTopK|ReplicateWorkers|ReplicateBudgetBytes|DrainReplicator|SubmitMany|PollHubShards|\.PollHub\b|PollHub:|\bpollHub\b|newPollHub|hubShard|hubAlone|pollHubShards|writeGuardError|PullInterval|refreshView|newView|gateway/uddi|ViewPulls|view_pulls|ProbeInterval|ProbeTimeout|probeFails|ProbeFails|probe_fails|ticketTable|invokeTicket|serveInternal|TestTicketTableIsBounded|gateway/stats|GridHTTP|MyProxyDial|UserProfile|InvSubmitting|submitCounters|collectorCounters|eventCounters|stageCounters|placementCounters|statsMu|wanOpts|capScale|NewScaled|vtime\.Scaled|MinSleep|minSleeper|NewAuto|vtime\.Auto|othersAsleep|parkGap|repro/internal/vtime|NewManual|NewWatchdog|vtime\.|AblationHotPath|AblationPollHub|AblationSubmit|AblationPlacement|AblationDoubleWrite|AblationStagingCache|HotPathVariants|PollHubVariants|SubmitVariants|StageVariants|PlacementVariants|\b(cfg|Appliance|c|o\.cfg)\.ChunkBytes\b|maxPendingEvents|maxReapedJobs|pendingEvent|stashLocked|reapedJobs|statusFor|errCode|mapError|replyError|httpError|errorReply|decodeError|byCode' . ||
	grep -nE '^\s+ChunkBytes\b' internal/core/config.go; then
	echo "a deleted name is back (see above)" >&2
	exit 1
fi

# One way out to the grid: every hop between this repository's processes
# rides hop's transport, so the figures and the fault tables measure the
# client stack production ships. No program file under internal/ or
# examples/ builds a net/http Transport or reaches net/http's defaults,
# except hop's own fallback and the two user-side clients, which stand
# for external callers; and core's fault table forwards to hop, not to
# http.DefaultTransport.
if grep -rnE --include='*.go' --exclude='*_test.go' 'http\.Transport\{|http\.DefaultTransport|http\.DefaultClient' internal examples |
	grep -vE '^internal/(hop/transport|soap/client|portal/client)\.go:' ||
	grep -n 'http\.DefaultTransport' internal/core/*_test.go; then
	echo "a hop bypasses hop's transport (see above)" >&2
	exit 1
fi

# One fault vocabulary: core's tests reach the grid, and the gateway's its
# members, through one fault table, internal/hop/hoptest's Faults (a rule
# is a path match, a "when" and one action), so neither declares a
# RoundTrip of its own.
if grep -n '^func (.*) RoundTrip(' internal/core/*_test.go internal/gateway/*_test.go; then
	echo "a test of core or the gateway declares a RoundTrip of its own (see above): add a rule to hoptest's fault table" >&2
	exit 1
fi

# One front-door fixture: the tests of the appliance, the portal, the
# gateway, the root package and the commands (cmd/bench, a module of its
# own, aside) boot a grid and an appliance through
# internal/appliance/appliancetest alone (the gateway its members over
# appliancetest.StartGrid), so none of them starts a grid or builds an
# image itself.
doors="internal/appliance/*_test.go internal/portal/*_test.go internal/gateway/*_test.go ./*_test.go $(find cmd -path cmd/bench -prune -o -name '*_test.go' -print)"
if grep -n 'gridenv\.Start(\|BuildImage(' $doors; then
	echo "a front-door test boots a grid or an image of its own (see above): use appliancetest" >&2
	exit 1
fi

# tests pkgs name...: fails unless each name is a test of one of pkgs, so
# a renamed test cannot drop out of a -run list below unnoticed.
tests() {
	have=$(go test -list . $1)
	shift
	for name in "$@"; do
		if ! echo "$have" | grep -qx "$name"; then
			echo "$name is no test in the packages it is run in" >&2
			exit 1
		fi
	done
}

# One error vocabulary on every hop: a reply carries an errcode code and
# each client maps it to a sentinel, so no program file under internal/ or
# cmd/ (cmd/bench aside) tells one error from another by its text
# (errors.Is does).
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '\.Error\(\) *(==|!=)|(==|!=) *[A-Za-z_.]+\.Error\(\)|strings\.[A-Za-z]+\([^)]*\.Error\(\)' internal cmd; then
	echo "a program file compares an error's text (see above): compare with errors.Is against a sentinel" >&2
	exit 1
fi

# Codec state and encode buffers live on sizedio free lists, which a
# collection does not empty: no program file under internal/ keeps a
# sync.Pool, whose contents every other GC drops.
if grep -rn --include='*.go' --exclude='*_test.go' 'sync\.Pool' internal; then
	echo "a sync.Pool is back under internal/ (see above): use sizedio.FreeList" >&2
	exit 1
fi

go vet ./...
go build ./...
# Reach audit (about 30 s on two cores): the studies, the root integration
# tests and the cmd/ tests run once with coverage of internal/, and every
# function they leave at 0 % must have a line in reach.allow. An exported
# function only a test calls fails it, and so does an allowlist line whose
# function is gone. To keep such a function, add "<path> <Recv.Func>
# <reason>" to reach.allow under the heading that says why (reach.sh's
# header lists the five); otherwise delete it.
./reach.sh
go test -race -short ./...
# The three figures and the knobs study in the lane, plain and under the
# detector, on one P and on two: each run writes fig6.csv, fig7.csv,
# fig8.csv and knobs.json byte for byte as results/ holds them, however
# slow the instrumented code runs.
lane=$(mktemp -d)
for race in "" -race; do
	go build $race -o "$lane/experiments" ./cmd/experiments
	for procs in 1 2; do
		for fig in 6 7 8; do
			GOMAXPROCS=$procs "$lane/experiments" -fig $fig -out "$lane" >/dev/null
			cmp "$lane/fig$fig.csv" "results/fig$fig.csv"
		done
		GOMAXPROCS=$procs "$lane/experiments" -knobs -out "$lane" >/dev/null
		cmp "$lane/knobs.json" results/knobs.json
	done
done
rm -rf "$lane"
# The invocation collectors (per-invocation pollers and the push
# collector — event streams racing cancels, watchdog kills, and a worker
# falling back to polling its own jobs; the gridsim event bus fanning
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
# rejoin: health FSM transitions fed by ask — the one place proxied
# traffic counts for or against a member — from concurrent requests,
# gather's goroutines writing index-aligned replies, waits walking their
# ticket's service ring while invokes eject and readmit its members, a tenancy-on
# failover replaying the catalogued upload under the uploader's key,
# the fleet's /registry page gathered from every member), the trust store (gatekeeper and GridFTP handlers verifying chains
# against one memo at once), and the tenant control plane
# (concurrent admits racing quota
# release, key rotation mid-burst, DRR wakeups racing timeouts), and the
# appliance's own transport (streamed bodies copied through one free list of
# buffers by concurrent requests, keep-alive connections pooled and
# released by concurrent hops), and the counter stores (metrics.Block
# updates racing snapshots) are the
# concurrency hot spots, and the appliance package boots the two
# supported profiles end to end: run their packages fresh
# (-count=1 defeats the test cache) so cached "ok" lines can never
# mask a newly introduced race.
go test -race -count=1 ./internal/core ./internal/blobdb ./internal/cyberaide ./internal/gram ./internal/gridsim ./internal/gridftp ./internal/netsim ./internal/portal ./internal/soap ./internal/trace ./internal/gateway ./internal/tenant ./internal/appliance ./internal/xsec ./internal/hop ./internal/metrics
# The transport every internal hop takes has one fault table (dead pooled
# connections, lost and cut replies, an early 403, a silent peer, a stream
# closed from another goroutine, oversized heads, broken framing): five
# fresh rounds under the detector.
tests ./internal/hop TestTransportFaults
go test -race -count=5 -run '^TestTransportFaults$' ./internal/hop
# So has the event-stream edge's fallback: a stream that says hello and
# then nothing, with registrations racing the worker's leaving, and every
# collector promise kept by a worker polling behind a stock gatekeeper.
tests ./internal/core TestPushEventsStalledStreamFallsBack TestCollectorContract
go test -race -count=5 -run '^TestPushEventsStalledStreamFallsBack$|^TestCollectorContract$/.*/push-to-poll' ./internal/core
# So has the gateway's health circuit, which only requests move: the
# half-open trial by request, a kill and a rejoin filled on demand, the
# loop fault table, a ticket's walk along its service ring, a request of
# each kind with an affinity-free one moving past a dead member, and no
# goroutine of its own beside the listener's.
gateway_race='TestHalfOpenTrialIsARequest|TestHalfOpenAdmitsOneTrialAtATime|TestFleetKillFailoverAndRejoin|TestFleetConcurrentBurstSurvivesKillAndRejoin|TestRejoinUploadsNothingUntilAsked|TestDeleteAfterRejoinSweepsTheFleet|TestFleetTenancyFailoverReplaysAsTheUploader|TestLoopFaults|TestTicketWalksItsServiceRing|TestFleetRoutingSticksAndMerges|TestGatewayRunsNoBackgroundGoroutine'
tests ./internal/gateway $(echo "$gateway_race" | tr '|' ' ')
go test -race -count=5 -run "^($gateway_race)\$" ./internal/gateway
# The fleet, the tenant control plane and the grid's scheduler run their
# fixtures in bubbles over in-process pipes: three fresh rounds under the
# detector, so a verdict that still leaned on host timing would show.
go test -race -count=3 ./internal/gateway ./internal/tenant ./internal/gridsim

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
# The JSON door reads an invoke body by a flatjson walk that hands any
# other body to encoding/json: FuzzInvokeBody holds the two to one answer,
# and the gateway's service-only reading to it (FuzzRoutePath above holds
# DecodeRoute to the portal's reading).
go test -run='^$' -fuzz=FuzzInvokeBody -fuzztime=5s ./internal/portal
# Both doors read a query's one value by one scan, not url.ParseQuery's
# map: FuzzQueryGet holds it to net/url, value and error alike.
go test -run='^$' -fuzz=FuzzQueryGet -fuzztime=5s ./internal/portal
# Every internal hop's request head is written, and its reply head read,
# by hand: FuzzRequestHead holds the bytes to (*http.Request).Write's (equal,
# or both refuse), FuzzReadReply holds a reply hop accepts to what
# http.ReadResponse makes of it.
go test -run='^$' -fuzz=FuzzRequestHead -fuzztime=5s ./internal/hop
go test -run='^$' -fuzz=FuzzReadReply -fuzztime=5s ./internal/hop
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
# under a quarter of it (and, streamed to the real sites over loopback,
# under 56 KB on the appliance's side), a 1 MB body streamed on a warm
# connection costs under 16 KB, no fresh copy buffer, publishing one allocates the stream its row keeps
# and under a quarter of it beside that, a 256 KB stored read or logged put
# right after two collections allocates its stream and 16 KB beside it
# (the free lists keep their codecs across a GC; they keep at most
# GOMAXPROCS items each, none past sizedio.MaxKept), the appliance routes
# a SOAP call and an /api/invoke to their handlers in no object, and the
# SOAP door decodes an invocation's envelope in three objects and serves
# one in five (with tenancy on, a status call through the guard, which
# reads and decodes it for the container, in 36 with the test's
# recorder), a declared 200-byte body is read in one, a signed submit
# costs at most 15 objects, the three event frames of a hot invocation 2
# and the gateway's proxy hop 10, five of them the fault table's reply (a
# key's ring walk none); the JSON door reads an invoke body in 4
# objects, routes it in 1 and answers a finished invocation's /api/wait
# in 1, a placement the possession cache answers costs nothing and no
# goroutine, a staging-cache hit leads no flight, an armed watchdog parks
# no goroutine, and a warm internal GET plus a 1 KB POST cost at most 54
# objects, client and server together, and a metrics.Block update through
# a capturing closure none. All ran above; run them fresh and without the race detector's own
# allocations so a regression reads as a number, not as noise. A name in
# the list that matches no test of the packages fails here first (tests).
guards='TestGetHitAllocationIndependentOfBlobSize|TestHotInvokeAllocatesNoExecutableSizedObject|TestColdStageAllocatesNoExecutableSizedObject|TestUploadAllocatesNoRawSizedObject|TestHotDoorAllocations|TestDispatchAllocations|TestSubmitAllocations|TestHotOpFrameDecodeAllocations|TestForwardAllocations|TestOrderedMembersAllocations|TestStreamedBodyAllocations|TestInvokeReadAllocations|TestDecodeRouteAllocations|TestWaitDoorAllocations|TestCachedPlacementAllocations|TestStagingCacheHitLeadsNoFlight|TestWatchdogStartsNoGoroutine|TestRoundTripAllocations|TestBlockUpdateAllocations|TestReadStoredByteBudgetAcrossGC|TestPutWALByteBudgetAcrossGC|TestFreeListsKeepNothingLarge|TestFreeListBoundsWhatItKeeps|TestReadAllAllocations|TestGuardedSOAPStatusAllocations'
guard_pkgs='./internal/appliance ./internal/blobdb ./internal/core ./internal/soap ./internal/gram ./internal/gateway ./internal/hop ./internal/portal ./internal/metrics ./internal/sizedio'
tests "$guard_pkgs" $(echo "$guards" | tr '|' ' ')
go test -count=1 -run "^($guards)\$" $guard_pkgs

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

# Not a gate, seven numbers: the non-test lines of the packages ROADMAP
# item 4 wants smaller (internal/appliance counted with them, so a
# declaration moving between core and appliance reads as zero, and its
# test fixture, appliancetest, left out with the other tests), of the
# evaluation harness alone, and of the front door (gateway, portal and
# its one client's CLI); internal/core's test lines, the front doors'
# test lines (their fixture included), and the repository's
# test and non-test Go lines (cmd/bench, a module of its own, aside),
# counted the same way every time so each PR's CHANGES.md line can quote
# them; and how many fields the one knob struct has, as TestConfigSurface
# logs it.
set +x
count() { find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/appliancetest/*' -exec cat {} + | wc -l; }
lines() { find . -path ./cmd/bench -prune -o -path ./.git -prune -o -name "$1" ! -name "$2" -print | xargs cat | wc -l; }
fields=$(go test -count=1 -v -run '^TestConfigSurface$' ./internal/appliance | grep -o 'appliance.Config: [0-9]* fields' || true)
echo "non-test Go lines, internal/core + internal/appliance + internal/blobdb + internal/experiments: $(count internal/core internal/appliance internal/blobdb internal/experiments) (without internal/appliance: $(count internal/core internal/blobdb internal/experiments), ROADMAP item 4: <= 8000); internal/experiments + cmd/experiments: $(count internal/experiments cmd/experiments); internal/gateway + internal/portal + cmd/onserve-cli: $(count internal/gateway internal/portal cmd/onserve-cli); internal/core test lines: $(find internal/core -name '*_test.go' -exec cat {} + | wc -l); internal/gateway test lines: $(cat internal/gateway/*_test.go | wc -l); front-door test lines: $(cat internal/appliance/*_test.go internal/portal/*_test.go integration_test.go cmd/onserve/*_test.go cmd/onserve-cli/*_test.go cmd/cyberaide-shell/*_test.go internal/appliance/appliancetest/*.go | wc -l); repository Go lines, test vs non-test: $(lines '*_test.go' '') vs $(lines '*.go' '*_test.go'); $fields"
