package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/blobdb"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gram"
	"repro/internal/gridenv"
	"repro/internal/gridftp"
	"repro/internal/gsh"
	"repro/internal/jsdl"
	"repro/internal/myproxy"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsdl"
	"repro/internal/xsec"
)

// The layer rungs: testing.Benchmark around exported functions of one
// package each, against a loopback fixture booted in this process. A
// rung's ns/op is a mean and includes the in-process peer (a rung that
// calls a client also pays for the server goroutine that answers it);
// allocs/op likewise counts the whole process. Rungs say what a layer
// costs alone; the workloads say whether that cost matters.

// rungFixture is everything the rungs run against.
type rungFixture struct {
	env   *gridenv.Env
	user  *xsec.Credential // alice's end-entity credential
	proxy *xsec.Credential // delegated from it; signs grid requests
	owner string           // the identity both authenticate as
	app   *appliance.Appliance
	gw    *gateway.Gateway
	tmp   string
	now   time.Time
	prog  []byte // echo ${n}
	k64   []byte
	m1    []byte
	desc  jsdl.Description
}

const rungService = "RungService"

func bootRungFixture(tmpRoot string) (_ *rungFixture, err error) {
	f := &rungFixture{prog: []byte(programHead)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if f.tmp, err = os.MkdirTemp(tmpRoot, "rungs-"); err != nil {
		return nil, err
	}
	if f.env, err = gridenv.Start(gridenv.Options{}); err != nil {
		return nil, err
	}
	if f.user, err = f.env.AddUser("alice", "pw", 0); err != nil {
		return nil, err
	}
	f.now = time.Now() // no earlier than any certificate's first valid instant
	if f.proxy, err = f.user.Delegate(f.now, 12*time.Hour); err != nil {
		return nil, err
	}
	f.owner = xsec.Identity(f.proxy.Chain)
	f.k64 = gsh.Pad(f.prog, 64<<10)
	f.m1 = gsh.Pad(f.prog, 1<<20)
	if err := f.env.StageEverywhere(f.owner, "rung.gsh", f.prog); err != nil {
		return nil, err
	}
	f.desc = jsdl.Description{
		Name: "rung", Owner: f.owner, Executable: "rung.gsh",
		Arguments: map[string]string{"n": "7"}, Site: f.env.Grid.SiteNames()[0],
	}

	cfg := profileProd()
	cfg.Endpoints = f.env.Endpoints()
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		return nil, err
	}
	if f.app, err = img.Boot(nil); err != nil {
		return nil, err
	}
	auth := core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
	f.app.OnServe.RegisterUser("alice", auth)
	params := []wsdl.ParamDef{{Name: "n", Type: wsdl.TypeString}}
	if _, err := f.app.OnServe.UploadAndGenerate("alice", "rung.gsh", "rung", params, f.k64); err != nil {
		return nil, err
	}

	if f.gw, err = gateway.Boot(gateway.Config{Fleet: 1, Appliance: cfg}, nil); err != nil {
		return nil, err
	}
	f.gw.RegisterUser("alice", auth)
	// Publish through the gateway so its view knows the service's owner.
	c := newCaller(0, &workload{}, f.gw.BaseURL, 0, http.DefaultTransport)
	if _, err := c.upload("rung.gsh", "alice", f.k64); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *rungFixture) close() {
	if f.gw != nil {
		f.gw.Shutdown()
	}
	if f.app != nil {
		f.app.Shutdown()
	}
	if f.env != nil {
		f.env.Close()
	}
	if f.tmp != "" {
		os.RemoveAll(f.tmp)
	}
}

// rungFailure is the error of the rung that is running; testing.B
// discards what a benchmark outside `go test` logs.
var rungFailure error

func check(b *testing.B, err error) {
	if err != nil {
		rungFailure = err
		b.FailNow()
	}
}

// The sinks keep results alive so the compiler cannot drop the calls.
// Only pointers go into sink: boxing a string or a slice would add an
// allocation to the rung's count, so those leave their length instead.
var (
	sink    any
	sinkLen int
)

func httpGet(b *testing.B, url string) {
	resp, err := http.Get(url)
	check(b, err)
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	check(b, err)
	if resp.StatusCode != http.StatusOK {
		check(b, fmt.Errorf("GET %s: http %d", url, resp.StatusCode))
	}
}

// rungs returns the rung bodies by name.
func (f *rungFixture) rungs() map[string]func(b *testing.B) {
	serviceDef := wsdl.ServiceDef{
		Name: rungService, Namespace: "urn:onserve:" + rungService, Doc: "rung",
		EndpointURL: "http://127.0.0.1:8080/services/" + rungService,
		Operations: []wsdl.OperationDef{
			{Name: "execute", Params: []wsdl.ParamDef{{Name: "n", Type: wsdl.TypeString}}},
			{Name: "status", Params: []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString}}},
			{Name: "output", Params: []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString}}},
			{Name: "wait", Params: []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString}}},
			{Name: "cancel", Params: []wsdl.ParamDef{{Name: "ticket", Type: wsdl.TypeString}}},
		},
	}
	executeMsg := &soap.Message{
		Namespace: serviceDef.Namespace, Operation: "execute",
		Params: []soap.Param{{Name: "n", Value: "123456789"}},
	}
	gc := &gram.Client{BaseURL: f.env.GramURL, Cred: f.proxy}
	ftp := &gridftp.Client{BaseURL: f.env.FTPURLs[f.desc.Site], Cred: f.proxy}
	// doneJobs submits n jobs and waits until each has finished.
	doneJobs := func(b *testing.B, n int) []string {
		ids := make([]string, n)
		for i := range ids {
			j, err := f.env.Grid.Submit(f.desc)
			check(b, err)
			<-j.Done()
			ids[i] = j.ID
		}
		return ids
	}
	openDB := func(b *testing.B, opts blobdb.Options, seed bool) (*blobdb.DB, *blobdb.Table) {
		db, err := blobdb.Open(opts)
		check(b, err)
		t := db.Table("rung")
		if seed {
			check(b, t.Put("k", nil, f.k64))
		}
		return db, t
	}
	get := func(opts blobdb.Options) func(b *testing.B) {
		return func(b *testing.B) {
			db, t := openDB(b, opts, true)
			defer db.Close()
			_, err := t.Get("k") // fill the cache, if there is one
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := t.Get("k")
				check(b, err)
				sink = rec
			}
		}
	}
	put := func(opts func() blobdb.Options) func(b *testing.B) {
		return func(b *testing.B) {
			db, t := openDB(b, opts(), false)
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check(b, t.Put("k", nil, f.k64))
			}
		}
	}
	putChunked := func(cold bool) func(b *testing.B) {
		return func(b *testing.B) {
			data := append([]byte(nil), f.m1...)
			_, err := ftp.PutChunked("rung-chunked.bin", data, nil, 0)
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					// Touch every 64 KB so no chunk of any size is one
					// the server already holds.
					stamp := strconv.FormatInt(time.Now().UnixNano(), 16)
					for off := len(programHead) + 1; off+len(stamp) < len(data); off += 64 << 10 {
						copy(data[off:], stamp)
					}
				}
				st, err := ftp.PutChunked("rung-chunked.bin", data, nil, 0)
				check(b, err)
				if cold == (st.ChunksShipped == 0) {
					check(b, fmt.Errorf("chunked put shipped %d of %d chunks, cold=%t", st.ChunksShipped, st.ChunksTotal, cold))
				}
			}
		}
	}

	return map[string]func(b *testing.B){
		"soap.encode": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := soap.Encode(executeMsg)
				check(b, err)
				sinkLen += len(env)
			}
		},
		"soap.decode": func(b *testing.B) {
			env, err := soap.Encode(executeMsg)
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := soap.Decode(env)
				check(b, err)
				sink = msg
			}
		},
		"wsdl.generate": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc, err := wsdl.Generate(&serviceDef)
				check(b, err)
				sinkLen += len(doc)
			}
		},
		"wsdl.parse": func(b *testing.B) {
			doc, err := wsdl.Generate(&serviceDef)
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				def, err := wsdl.Parse(doc)
				check(b, err)
				sink = def
			}
		},
		"jsdl.roundtrip": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc, err := jsdl.Marshal(&f.desc)
				check(b, err)
				d, err := jsdl.Unmarshal(doc)
				check(b, err)
				sink = d
			}
		},
		"xsec.verify_chain": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id, err := f.env.Trust.VerifyChain(f.proxy.Chain, f.now)
				check(b, err)
				sinkLen += len(id)
			}
		},
		"xsec.delegate": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := f.user.Delegate(f.now, 12*time.Hour)
				check(b, err)
				sink = p
			}
		},
		"myproxy.get": func(b *testing.B) {
			mp := &myproxy.Client{Addr: f.env.MyProxyAddr}
			for i := 0; i < b.N; i++ {
				p, err := mp.Get("alice", "pw", 12*time.Hour)
				check(b, err)
				sink = p
			}
		},
		"blobdb.put_mem_64k": put(func() blobdb.Options { return blobdb.Options{} }),
		"blobdb.put_wal_64k": put(func() blobdb.Options {
			dir, err := os.MkdirTemp(f.tmp, "wal-")
			if err != nil {
				panic(err) // f.tmp was created by this process a moment ago
			}
			return blobOptionsDisk(dir)
		}),
		"blobdb.get_miss_64k": get(blobdb.Options{}),
		"blobdb.get_hit_64k":  get(blobOptionsCached()),
		"blobdb.get_compressed_64k": func(b *testing.B) {
			db, t := openDB(b, blobdb.Options{}, true)
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gz, _, err := t.GetCompressed("k")
				check(b, err)
				sinkLen += len(gz)
			}
		},
		"gridftp.put_1m": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, err := ftp.Put("rung-plain.bin", f.m1)
				check(b, err)
				sinkLen += len(sum)
			}
		},
		"gridftp.put_chunked_cold_1m": putChunked(true),
		"gridftp.put_chunked_warm_1m": putChunked(false),
		"gram.submit": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id, err := gc.Submit(&f.desc)
				check(b, err)
				sinkLen += len(id)
			}
		},
		"gram.status_batch_64": func(b *testing.B) {
			ids := doneJobs(b, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := gc.StatusBatch(ids)
				check(b, err)
				sinkLen += len(entries)
			}
		},
		"gram.output_unchanged": func(b *testing.B) {
			id := doneJobs(b, 1)[0]
			_, ver, _, err := gc.OutputIfChanged(id, 0)
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, changed, err := gc.OutputIfChanged(id, ver)
				check(b, err)
				if changed {
					check(b, fmt.Errorf("output of finished job %s changed", id))
				}
			}
		},
		"gsh.parse_1m": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := gsh.Parse(f.m1)
				check(b, err)
				sink = p
			}
		},
		"gridsim.submit_done": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, err := f.env.Grid.Submit(f.desc)
				check(b, err)
				<-j.Done()
			}
		},
		"tenant.admit": func(b *testing.B) {
			ctl, err := tenant.NewController(tenant.Config{
				Owners: []tenant.OwnerConfig{{Name: "alice"}},
				Keys:   []tenant.KeyConfig{{Key: "rung-key", Owner: "alice"}},
			}, tenant.Options{})
			check(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr, err := ctl.Authenticate("rung-key", tenant.VerbInvoke)
				check(b, err)
				adm, err := ctl.Admit(pr, tenant.VerbInvoke, rungService, trace.SpanContext{})
				check(b, err)
				adm.Release()
				adm.Finish("ticket", nil)
			}
		},
		"trace.span_on":  spanRung(trace.NewTracer("rung", nil, trace.NewCollector(0, 0))),
		"trace.span_nil": spanRung(nil),
		"gateway.decode_route": func(b *testing.B) {
			body := []byte(`{"service":"` + rungService + `","args":{"n":"123456789"}}`)
			for i := 0; i < b.N; i++ {
				rt, err := gateway.DecodeRoute(http.MethodPost, "/api/invoke", "", "application/json", body)
				check(b, err)
				sinkLen += len(rt.Service)
			}
		},
		// The same read against the same appliance, through the gateway
		// and straight: the difference is the hop's price.
		"gateway.proxy_hop": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				httpGet(b, f.gw.BaseURL+"/api/service?name="+rungService)
			}
		},
		"portal.hop": func(b *testing.B) {
			direct := f.gw.Fleet()[0].BaseURL
			for i := 0; i < b.N; i++ {
				httpGet(b, direct+"/api/service?name="+rungService)
			}
		},
		// Publish refuses a name that is taken, so the rung is the whole
		// publish, find, delete cycle.
		"uddi.publish_find": func(b *testing.B) {
			reg := uddi.NewRegistry(nil)
			rec := uddi.Record{Name: rungService, Endpoint: serviceDef.EndpointURL, Owner: "alice"}
			for i := 0; i < b.N; i++ {
				key, err := reg.Publish(rec)
				check(b, err)
				sinkLen += len(reg.Find("Rung%"))
				check(b, reg.Delete(key))
			}
		},
		// Likewise upload-and-generate plus the delete that frees the name.
		"core.upload_generate_64k": func(b *testing.B) {
			params := []wsdl.ParamDef{{Name: "n", Type: wsdl.TypeString}}
			for i := 0; i < b.N; i++ {
				rec, err := f.app.OnServe.UploadAndGenerate("alice", "rung-upload.gsh", "rung", params, f.k64)
				check(b, err)
				check(b, f.app.OnServe.DeleteService(rec.Name))
			}
		},
		"core.invoke_hot": func(b *testing.B) {
			args := map[string]string{"n": "7"}
			for i := 0; i < b.N; i++ {
				inv, err := f.app.OnServe.Invoke(rungService, args)
				check(b, err)
				<-inv.DoneChan()
				if inv.State() != core.InvDone {
					check(b, fmt.Errorf("invocation %s ended %s: %s", inv.Ticket, inv.State(), inv.Message()))
				}
			}
		},
	}
}

func spanRung(tr *trace.Tracer) func(b *testing.B) {
	return func(b *testing.B) {
		parent := trace.SpanContext{TraceID: [16]byte{1}, SpanID: [8]byte{1}}
		for i := 0; i < b.N; i++ {
			sp := tr.StartSpan("stage", parent)
			sp.SetInt("bytes", 65536)
			sp.End()
		}
	}
}

// runRungs boots the fixture, runs every rung for benchtime and returns
// <name>.ns_per_op and <name>.allocs_per_op. A rung that fails reads 0
// and is named in the returned error. tmp is where the on-disk fixtures
// live.
func runRungs(tmp, benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	f, err := bootRungFixture(tmp)
	if err != nil {
		return nil, fmt.Errorf("rungs: fixture: %w", err)
	}
	defer f.close()
	bodies := f.rungs()
	out := map[string]float64{}
	var failed error
	for _, name := range rungNames {
		body := bodies[name]
		rungFailure = nil
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b)
		})
		if rungFailure != nil || res.N == 0 {
			if failed == nil {
				failed = fmt.Errorf("rung %s: %v", name, rungFailure)
			}
			continue
		}
		out[name+".ns_per_op"] = float64(res.T.Nanoseconds()) / float64(res.N)
		out[name+".allocs_per_op"] = float64(res.MemAllocs) / float64(res.N)
	}
	return out, failed
}
