package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/gsh"
	"repro/internal/wsclient"
)

// HotPathVariants lists the invocation hot-path ablation variants in
// the order they are reported: the paper-faithful stock pipeline, each
// optimisation lever alone, and all levers together ("warm").
var HotPathVariants = []string{"stock", "session-cache", "stats-ttl", "blob-lru", "warm"}

// AblationHotPath compares the invocation hot path with each
// optimisation lever against the paper's stock behaviour: per-owner
// session caching (no MyProxy logon per invocation), the TTL-cached
// grid-stats snapshot (no scheduler SOAP round-trip per invocation),
// and the decompressed-blob LRU (no gzip inflate per invocation — the
// Fig. 6 CPU peak). Each variant uploads one executable and invokes it
// invocations times back-to-back.
//
// With no explicit variants, every entry of HotPathVariants runs.
func AblationHotPath(opts Options, fileKB, invocations int, variants ...string) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 256
	}
	if invocations <= 0 {
		invocations = 3
	}
	if len(variants) == 0 {
		variants = HotPathVariants
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d back-to-back invocations of a %d KB executable", invocations, fileKB),
		"stock re-authenticates, re-fetches grid stats and re-inflates the blob per invocation",
		"warm enables the session cache, stats TTL and blob LRU together",
	}}
	for _, variant := range variants {
		o := opts
		// Fine polling keeps completion-detection quantisation from
		// drowning the per-invocation setup difference under comparison.
		o.Appliance.PollInterval = 3 * time.Second
		switch variant {
		case "stock":
		case "session-cache":
			o.Appliance.SessionCache = true
		case "stats-ttl":
			o.Appliance.StatsTTL = 30 * time.Second
		case "blob-lru":
			o.Appliance.BlobCacheBytes = 256 << 20
		case "warm":
			o.Appliance.SessionCache = true
			o.Appliance.StatsTTL = 30 * time.Second
			o.Appliance.BlobCacheBytes = 256 << 20
		default:
			return nil, fmt.Errorf("experiments: unknown hot-path variant %q", variant)
		}
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), fileKB<<10))
		if err := r.uploadViaPortal("hotjob.gsh", program); err != nil {
			r.close()
			return nil, err
		}
		proxy, err := wsclient.ImportURL(r.app.BaseURL+"/services/HotjobService", r.userHTTP)
		if err != nil {
			r.close()
			return nil, err
		}
		r.rec.Reset()
		logons, statsRPCs := r.app.Agent.SessionCount(), r.app.OnServe.SubmitStats().StatsRPCs
		start := r.clock.Now()
		for i := 0; i < invocations; i++ {
			ticket, err := proxy.Invoke("execute", nil)
			if err != nil {
				r.close()
				return nil, err
			}
			if _, err := proxy.Invoke("wait", map[string]string{"ticket": ticket}); err != nil {
				r.close()
				return nil, err
			}
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		// What the levers remove, counted: nothing logs a session out
		// during the run, so the table's growth is the MyProxy logons.
		logons = r.app.Agent.SessionCount() - logons
		statsRPCs = r.app.OnServe.SubmitStats().StatsRPCs - statsRPCs
		res.Rows = append(res.Rows,
			AblationRow{Study: "hot-path", Variant: variant, Metric: "makespan_s", Value: elapsed},
			AblationRow{Study: "hot-path", Variant: variant, Metric: "per_invoke_s", Value: elapsed / float64(invocations)},
			AblationRow{Study: "hot-path", Variant: variant, Metric: "net_out_total_kb", Value: sum["net_out_total_b"] / 1024},
			AblationRow{Study: "hot-path", Variant: variant, Metric: "cpu_total_s", Value: sum["cpu_total_s"]},
			AblationRow{Study: "hot-path", Variant: variant, Metric: "logons", Value: float64(logons)},
			AblationRow{Study: "hot-path", Variant: variant, Metric: "stats_rpcs", Value: float64(statsRPCs)},
		)
		r.close()
	}
	return res, nil
}

// AblationGroupCommit measures the WAL append path under concurrent
// writers: the stock one-unsynced-write-per-mutation behaviour against
// group commit (batched appends, one fsync per batch). Unlike the
// figure ablations this one runs in real time against a real on-disk
// WAL — virtual-time dilation would hide the syscall costs it exists to
// show.
func AblationGroupCommit(payloadKB, writers, putsPerWriter int) (*AblationResult, error) {
	if payloadKB <= 0 {
		payloadKB = 64
	}
	if writers <= 0 {
		writers = 8
	}
	if putsPerWriter <= 0 {
		putsPerWriter = 16
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d writers x %d puts of %d KB against an on-disk WAL (real time)", writers, putsPerWriter, payloadKB),
		"stock: one unsynced write per put; group: batched appends, one fsync per batch",
		"group commit upgrades durability (acked puts survive a crash) while amortising the flush",
	}}
	blob := gsh.Pad([]byte("echo x\n"), payloadKB<<10)
	for _, variant := range []struct {
		name  string
		group bool
	}{{"stock", false}, {"group", true}} {
		dir, err := os.MkdirTemp("", "hotpath-wal-*")
		if err != nil {
			return nil, err
		}
		db, err := blobdb.Open(blobdb.Options{Dir: dir, GroupCommit: variant.group})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		tab := db.Table("bench")
		start := time.Now()
		var wg sync.WaitGroup
		errc := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < putsPerWriter; i++ {
					if err := tab.Put(fmt.Sprintf("w%02d-k%03d", w, i), nil, blob); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		elapsed := time.Since(start)
		walWrites, walSyncs := db.WALStats()
		if err := db.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		os.RemoveAll(dir)
		puts := float64(writers * putsPerWriter)
		res.Rows = append(res.Rows,
			AblationRow{Study: "group-commit", Variant: variant.name, Metric: "wall_ms", Value: float64(elapsed.Milliseconds())},
			AblationRow{Study: "group-commit", Variant: variant.name, Metric: "puts_per_s", Value: puts / elapsed.Seconds()},
			AblationRow{Study: "group-commit", Variant: variant.name, Metric: "wal_writes", Value: float64(walWrites)},
			AblationRow{Study: "group-commit", Variant: variant.name, Metric: "wal_syncs", Value: float64(walSyncs)},
		)
	}
	return res, nil
}
