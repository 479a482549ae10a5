package tenant

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/bubble"
	"repro/internal/trace"
)

// TestMain runs the tests that move or wait on time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestParseKeyHeader(t *testing.T) {
	long := make([]byte, maxKeyLen+1)
	for i := range long {
		long[i] = 'a'
	}
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"secret-1", "secret-1", true},
		{"  secret-1\t", "secret-1", true},
		{"Grid secret-1", "secret-1", true},
		{"grid\tsecret-1", "secret-1", true},
		{"GRID secret-1", "secret-1", true},
		{"gridlock", "gridlock", true}, // no scheme separator: literal token
		{"", "", false},
		{"   ", "", false},
		{"Grid ", "Grid", true}, // trailing space trims away: literal token
		{"two words", "", false},
		{"ctrl\x01char", "", false},
		{"café", "", false},
		{string(long), "", false},
		{string(long[:maxKeyLen]), string(long[:maxKeyLen]), true},
	}
	for _, c := range cases {
		got, ok := ParseKeyHeader(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseKeyHeader(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestKeysetLookupAndRotation(t *testing.T) {
	var ks keyset
	ks.set("alpha", "alice")
	ks.set("beta", "bob")
	if owner, ok := ks.lookup("alpha"); !ok || owner != "alice" {
		t.Fatalf("lookup alpha = %q,%v", owner, ok)
	}
	if _, ok := ks.lookup("gamma"); ok {
		t.Fatal("unknown key resolved")
	}
	// Rotation: register the new key; set again re-points, never adds.
	ks.set("alpha2", "alice")
	ks.set("beta", "alice")
	if owner, ok := ks.lookup("alpha2"); !ok || owner != "alice" {
		t.Fatalf("rotated key = %q,%v", owner, ok)
	}
	if owner, ok := ks.lookup("beta"); !ok || owner != "alice" {
		t.Fatalf("re-pointed key = %q,%v", owner, ok)
	}
	if ks.size() != 3 {
		t.Fatalf("size = %d want 3", ks.size())
	}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"Wordcount", "Wordcount", true},
		{"Wordcount", "wordcount", false},
		{"Admin*", "AdminPanel", true},
		{"Admin*", "Panel", false},
		{"*count", "Wordcount", true},
		{"W?rdcount", "Wordcount", true},
		{"W?rdcount", "Wrdcount", false},
		{"a*b*c", "axxbyyc", true},
		{"a*b*c", "axxbyy", false},
		{"*a*a*a*", "aaa", true},
		{"**", "x", true},
	}
	for _, c := range cases {
		if got := Match(c.pat, c.name); got != c.want {
			t.Errorf("Match(%q,%q) = %v want %v", c.pat, c.name, got, c.want)
		}
	}
}

func TestPolicyDenyOverrides(t *testing.T) {
	p := Policy{
		Allow: []Rule{{Verbs: []string{"invoke", "upload"}, Services: []string{"*"}}},
		Deny:  []Rule{{Services: []string{"Admin*"}}},
	}
	if !p.Allows(VerbInvoke, "Wordcount") {
		t.Fatal("allow rule should admit Wordcount invoke")
	}
	if p.Allows(VerbInvoke, "AdminPanel") {
		t.Fatal("deny must override allow")
	}
	if p.Allows(VerbDelete, "Wordcount") {
		t.Fatal("verb outside allow list admitted")
	}
	// Empty allow = everything (minus denies).
	open := Policy{Deny: []Rule{{Verbs: []string{"delete"}}}}
	if !open.Allows(VerbInvoke, "X") || open.Allows(VerbDelete, "X") {
		t.Fatal("empty-allow policy misevaluated")
	}
	// Site allow-list.
	sited := Policy{Sites: []string{"ncsa-*", "sdsc"}}
	if !sited.SiteAllowed("ncsa-abe") || sited.SiteAllowed("tacc") || !sited.SiteAllowed("sdsc") {
		t.Fatal("site allow-list misevaluated")
	}
	if !(Policy{}).SiteAllowed("anywhere") {
		t.Fatal("empty site list must allow all sites")
	}
}

func TestRateLimiter(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rl := newRateLimiter()
		// rate 2/s, burst 2: two immediate tokens, then dry.
		for i := 0; i < 2; i++ {
			if !rl.allow("alice", VerbInvoke, 2, 2) {
				t.Fatalf("token %d denied", i)
			}
		}
		if rl.allow("alice", VerbInvoke, 2, 2) {
			t.Fatal("bucket should be empty")
		}
		time.Sleep(500 * time.Millisecond) // refills one token
		if !rl.allow("alice", VerbInvoke, 2, 2) {
			t.Fatal("refilled token denied")
		}
		if rl.allow("alice", VerbInvoke, 2, 2) {
			t.Fatal("second token should not have refilled")
		}
		// Other owner+verb buckets are independent; rate 0 is unlimited.
		if !rl.allow("bob", VerbInvoke, 2, 2) || !rl.allow("alice", VerbUpload, 2, 2) {
			t.Fatal("buckets not independent")
		}
		for i := 0; i < 100; i++ {
			if !rl.allow("alice", VerbCancel, 0, 0) {
				t.Fatal("rate 0 must be unlimited")
			}
		}
	})
}

// TestQuotaDRRWakeOrder pins the deficit-round-robin interleave: with
// weights 2:1 and a single slot releasing repeatedly, wakes go
// A,A,B,A,A,B — not the FIFO A,A,A,A,B,B arrival order.
func TestQuotaDRRWakeOrder(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		q := newQuota(1, 0, 0)
		q.configure("A", 0, 2)
		q.configure("B", 0, 1)
		q.configure("seed", 0, 1)
		if queued, _, err := q.acquire("seed"); queued || err != nil {
			t.Fatalf("seed acquire: queued=%v err=%v", queued, err)
		}

		woke := make(chan string, 8)
		// Park waiters one at a time — count them after each spawn — so
		// arrival order is deterministic.
		owners := []string{"A", "A", "A", "A", "B", "B"}
		for i, o := range owners {
			o := o
			go func() {
				if _, _, err := q.acquire(o); err != nil {
					woke <- "err:" + err.Error()
					return
				}
				woke <- o
			}()
			bubble.Wait()
			if _, waiting, _ := q.gauges(); waiting != i+1 {
				t.Fatalf("%d waiters parked, want %d", waiting, i+1)
			}
		}

		var order []string
		release := "seed"
		for i := 0; i < len(owners); i++ {
			q.release(release)
			got := <-woke
			order = append(order, got)
			release = got // hand the slot back next round
		}
		want := []string{"A", "A", "B", "A", "A", "B"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("wake order %v, want %v", order, want)
		}
		q.release(release)
		total, waiting, _ := q.gauges()
		if total != 0 || waiting != 0 {
			t.Fatalf("leaked slots: total=%d waiting=%d", total, waiting)
		}
	})
}

func TestQuotaQueueBoundAndOwnerCap(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		q := newQuota(0, 2, 0)
		q.configure("alice", 1, 1)
		if queued, _, err := q.acquire("alice"); queued || err != nil {
			t.Fatalf("first acquire: %v %v", queued, err)
		}
		// Owner cap reached: next two queue, third bounces off the bound.
		for i := 0; i < 2; i++ {
			go q.acquire("alice")
			bubble.Wait()
			if _, w, _ := q.gauges(); w != i+1 {
				t.Fatalf("%d waiters queued, want %d", w, i+1)
			}
		}
		if _, _, err := q.acquire("alice"); err != ErrSaturated {
			t.Fatalf("queue overflow err = %v, want ErrSaturated", err)
		}
		// Hand the slot down the queue, so both waiters return.
		q.release("alice")
		q.release("alice")
	})
}

func TestQuotaTimeout(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		q := newQuota(1, 0, time.Second)
		q.configure("alice", 0, 1)
		q.acquire("alice")
		done := make(chan error, 1)
		go func() {
			_, _, err := q.acquire("alice")
			done <- err
		}()
		bubble.Wait() // the waiter is parked on its timeout
		if _, w, _ := q.gauges(); w != 1 {
			t.Fatalf("%d waiters queued, want 1", w)
		}
		time.Sleep(2 * time.Second)
		if err := <-done; err != ErrSaturated {
			t.Fatalf("timeout err = %v, want ErrSaturated", err)
		}
		// The abandoned waiter must not absorb the next release.
		q.release("alice")
		if queued, _, err := q.acquire("alice"); err != nil {
			t.Fatalf("post-timeout acquire failed: queued=%v err=%v", queued, err)
		}
	})
}

func TestAuditRingOverflowNewestFirst(t *testing.T) {
	l := newAuditLog(4, nil)
	for i := 0; i < 10; i++ {
		owner := "alice"
		if i%2 == 1 {
			owner = "bob"
		}
		l.append(Record{Owner: owner, Verb: "invoke", Service: fmt.Sprintf("svc%d", i)})
	}
	got := l.query("", 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, want := range []string{"svc9", "svc8", "svc7", "svc6"} {
		if got[i].Service != want {
			t.Fatalf("query[%d] = %s, want %s (newest first)", i, got[i].Service, want)
		}
	}
	if got[0].Seq != 10 || got[3].Seq != 7 {
		t.Fatalf("seqs %d..%d, want 10..7", got[0].Seq, got[3].Seq)
	}
	if appended, dropped := l.counts(); appended != 10 || dropped != 6 {
		t.Fatalf("appended %d, dropped %d; want 10 and 6", appended, dropped)
	}
	if bob := l.query("bob", 1); len(bob) != 1 || bob[0].Service != "svc9" {
		t.Fatalf("owner filter broken: %+v", bob)
	}
}

func TestAuditPersistence(t *testing.T) {
	db, err := blobdb.Open(blobdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	l := newAuditLog(8, db)
	l.append(Record{Owner: "alice", Verb: "upload", Outcome: "ok"})
	l.append(Record{Owner: "alice", Verb: "invoke", Outcome: "denied"})
	if n := db.Table(AuditTable).Len(); n != 2 {
		t.Fatalf("persisted %d records, want 2", n)
	}
	rec, err := db.Table(AuditTable).Get(fmt.Sprintf("%016d", 2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta["verb"] != "invoke" || rec.Meta["outcome"] != "denied" {
		t.Fatalf("archive meta = %v", rec.Meta)
	}
}

func newTestController(t *testing.T, cfg Config, opts Options) *Controller {
	t.Helper()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControllerPipeline(t *testing.T) {
	col := trace.NewCollector(64, 0)
	tr := trace.NewTracer("tenant", nil, col)
	c := newTestController(t, Config{
		Owners: []OwnerConfig{{
			Name:   "alice",
			Policy: Policy{Deny: []Rule{{Services: []string{"Admin*"}}}},
		}},
		Keys: []KeyConfig{{Key: "alice-key", Owner: "alice"}},
	}, Options{Tracer: tr})

	// Unknown and missing keys deny with one audit record each.
	if _, err := c.Authenticate("bogus", VerbInvoke); err != ErrUnauthorized {
		t.Fatalf("bogus key err = %v", err)
	}
	if _, err := c.Authenticate("", VerbUpload); err != ErrUnauthorized {
		t.Fatalf("missing key err = %v", err)
	}
	pr, err := c.Authenticate("Grid alice-key", VerbInvoke)
	if err != nil || pr.Owner != "alice" {
		t.Fatalf("auth = %+v, %v", pr, err)
	}

	// Policy denial audits immediately.
	if _, err := c.Admit(pr, VerbInvoke, "AdminPanel", trace.SpanContext{}); err != ErrForbidden {
		t.Fatalf("deny err = %v", err)
	}
	// Admission + Finish audits exactly once, with a resolvable trace.
	adm, err := c.Admit(pr, VerbInvoke, "Wordcount", trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	adm.Finish("ticket-1", nil)
	adm.Finish("ticket-1", nil) // second call must not duplicate
	adm.Release()
	adm.Release()

	recs := c.Audit("", 0)
	if len(recs) != 4 {
		t.Fatalf("audit has %d records, want 4: %+v", len(recs), recs)
	}
	if recs[0].Outcome != "ok" || recs[0].Ticket != "ticket-1" || recs[0].TraceID == "" {
		t.Fatalf("newest record = %+v", recs[0])
	}
	if recs[1].Code != "forbidden" || recs[1].TraceID == "" {
		t.Fatalf("deny record = %+v", recs[1])
	}
	if recs[2].Code != "unauthorized" || recs[2].Owner != UnknownOwner {
		t.Fatalf("auth-deny record = %+v", recs[2])
	}

	st := c.Stats()
	if st.Admitted != 1 || st.Denied != 3 || st.Keys != 1 || st.AuditRecords != 4 {
		t.Fatalf("stats = %+v", st)
	}
	alice := st.Owners["alice"]
	if alice.Admitted != 1 || alice.Denied != 1 {
		t.Fatalf("alice stats = %+v", alice)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight leak: %d", st.InFlight)
	}
}

func TestControllerRateLimitDeny(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		c := newTestController(t, Config{
			Owners: []OwnerConfig{{Name: "alice", Rates: map[string]float64{"invoke": 1}}},
			Keys:   []KeyConfig{{Key: "k", Owner: "alice"}},
		}, Options{})
		pr := Principal{Owner: "alice"}
		adm, err := c.Admit(pr, VerbInvoke, "S", trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		adm.Finish("", nil)
		adm.Release()
		if _, err := c.Admit(pr, VerbInvoke, "S", trace.SpanContext{}); err != ErrRateLimited {
			t.Fatalf("err = %v, want ErrRateLimited", err)
		}
		// Other verbs are unconstrained, and time refills the bucket.
		if _, err := c.Admit(pr, VerbCancel, "S", trace.SpanContext{}); err != nil {
			t.Fatalf("cancel verb limited: %v", err)
		}
		time.Sleep(time.Second)
		if _, err := c.Admit(pr, VerbInvoke, "S", trace.SpanContext{}); err != nil {
			t.Fatalf("post-refill err = %v", err)
		}
		if st := c.Stats(); st.RateLimited != 1 {
			t.Fatalf("rate-limited counter = %d", st.RateLimited)
		}
	})
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Keys: 2, Admitted: 10, Denied: 1, InFlight: 3, QueueDepth: 1,
		Owners: map[string]OwnerStats{"alice": {Admitted: 10, InFlight: 3}}}
	b := Stats{Keys: 2, Admitted: 5, RateLimited: 2, InFlight: 7, QueueDepth: 0,
		Owners: map[string]OwnerStats{"alice": {Admitted: 5, InFlight: 7}, "bob": {Denied: 4}}}
	a.Merge(b)
	if a.Admitted != 15 || a.Denied != 1 || a.RateLimited != 2 {
		t.Fatalf("counters: %+v", a)
	}
	if a.InFlight != 7 || a.QueueDepth != 1 || a.Keys != 2 {
		t.Fatalf("gauges: %+v", a)
	}
	if al := a.Owners["alice"]; al.Admitted != 15 || al.InFlight != 7 {
		t.Fatalf("owner merge: %+v", al)
	}
	if a.Owners["bob"].Denied != 4 {
		t.Fatalf("new owner not merged")
	}
}

// TestConcurrentAdmitsRaceRelease hammers Admit/Release from many
// goroutines against a small quota; run under -race this pins the
// locking, and the final gauges prove no slot leaks.
func TestConcurrentAdmitsRaceRelease(t *testing.T) {
	c := newTestController(t, Config{
		Owners: []OwnerConfig{
			{Name: "alice", Weight: 2, MaxInFlight: 2},
			{Name: "bob", Weight: 1, MaxInFlight: 2},
		},
		Limits: LimitsConfig{MaxInFlight: 3, QueueDepth: 64},
	}, Options{})
	var wg sync.WaitGroup
	var denied atomic64
	for g := 0; g < 8; g++ {
		owner := "alice"
		if g%2 == 1 {
			owner = "bob"
		}
		wg.Add(1)
		go func(owner string) {
			defer wg.Done()
			pr := Principal{Owner: owner}
			for i := 0; i < 50; i++ {
				adm, err := c.Admit(pr, VerbInvoke, "S", trace.SpanContext{})
				if err != nil {
					denied.add(1)
					continue
				}
				adm.Finish("", nil)
				adm.Release()
			}
		}(owner)
	}
	wg.Wait()
	st := c.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("leaked: %+v", st)
	}
	if st.Admitted+st.Denied != 400 {
		t.Fatalf("admitted %d + denied %d != 400", st.Admitted, st.Denied)
	}
	if int(st.AuditRecords) != len(c.Audit("", 0)) && st.AuditDropped == 0 {
		t.Fatalf("audit count mismatch without drops")
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }

// TestKeyRotationMidBurst registers each owner's next key while readers
// authenticate with the newest and the first concurrently; run under
// -race this pins the keyset locking, and every key registered resolves
// from the moment SetKey returns.
func TestKeyRotationMidBurst(t *testing.T) {
	c := newTestController(t, Config{
		Keys: []KeyConfig{{Key: "gen-0", Owner: "alice"}},
	}, Options{})
	var latest atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, gen := range []int64{latest.Load(), 0} {
					pr, err := c.Authenticate(fmt.Sprintf("gen-%d", gen), VerbInvoke)
					if err != nil || pr.Owner != "alice" {
						t.Errorf("gen-%d: %+v, %v", gen, pr, err)
						return
					}
				}
			}
		}()
	}
	for gen := 1; gen <= 40; gen++ {
		if err := c.SetKey(fmt.Sprintf("gen-%d", gen), "alice"); err != nil {
			t.Fatal(err)
		}
		latest.Store(int64(gen))
	}
	close(stop)
	wg.Wait()
	if c.keys.size() != 41 {
		t.Fatalf("keyset size = %d, want 41", c.keys.size())
	}
}

func TestParseConfigRejectsBadDocuments(t *testing.T) {
	if _, err := ParseConfig([]byte(`{"keys":[{"key":"","owner":"a"}]}`)); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := ParseConfig([]byte(`{"keys":[{"key":"k","owner":""}]}`)); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := ParseConfig([]byte(`{"owners":[{"name":"a"},{"name":"a"}]}`)); err == nil {
		t.Fatal("duplicate owner accepted")
	}
	if _, err := ParseConfig([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	cfg, err := ParseConfig([]byte(`{"owners":[{"name":"alice","weight":2}],"keys":[{"key":"k","owner":"alice"}],"limits":{"max_inflight":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Owners[0].Weight != 2 || cfg.Limits.MaxInFlight != 8 {
		t.Fatalf("cfg = %+v", cfg)
	}
}
