package experiments

import (
	"fmt"
	"time"

	"repro/internal/appliance"
	"repro/internal/blobdb"
	"repro/internal/gsh"
)

func sessionCache(c *appliance.Config) { c.SessionCache = true }
func statsTTL(c *appliance.Config)     { c.StatsTTL = 30 * time.Second }

var hotPathTable = variantTable{"hot-path", []variant{
	{"stock", nil},
	{"session-cache", sessionCache},
	{"stats-ttl", statsTTL},
	{"warm", func(c *appliance.Config) { sessionCache(c); statsTTL(c) }},
}}

// HotPathVariants lists the invocation hot-path ablation variants in
// the order they are reported: the paper-faithful stock pipeline, each
// optimisation lever alone, and all levers together ("warm").
var HotPathVariants = hotPathTable.names()

// AblationHotPath compares the invocation hot path with each
// optimisation lever against the paper's stock behaviour: per-owner
// session caching (no MyProxy logon per invocation) and the TTL-cached
// grid-stats snapshot (no scheduler SOAP round-trip per invocation).
// Each variant uploads one executable and invokes it invocations times
// back-to-back.
//
// With no explicit variants, every entry of HotPathVariants runs.
func AblationHotPath(opts Options, fileKB, invocations int, variants ...string) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 256)
	invocations = orDefault(invocations, 3)
	table, err := hotPathTable.pick(variants...)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d back-to-back invocations of a %d KB executable", invocations, fileKB),
		"stock re-authenticates and re-fetches grid stats per invocation",
		"warm enables the session cache and stats TTL together",
	}}
	// Fine polling keeps completion-detection quantisation from drowning
	// the per-invocation setup difference under comparison.
	opts.Appliance.PollInterval = 3 * time.Second
	err = table.run(opts, func(variant string, r *rig) error {
		// What the levers remove, counted where it happens.
		logons, submitted := r.app.Agent.Logons(), since(r.app.OnServe.SubmitStats)
		m, err := r.backToBack("hotjob.gsh", fileKB, invocations)
		if err != nil {
			return err
		}
		row := res.at("hot-path", variant)
		row("makespan_s", m.seconds)
		row("per_invoke_s", m.seconds/float64(invocations))
		row("net_out_total_kb", m.sum["net_out_total_b"]/1024)
		row("cpu_total_s", m.sum["cpu_total_s"])
		row("logons", float64(r.app.Agent.Logons()-logons))
		row("stats_rpcs", float64(submitted().StatsRPCs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

var groupCommitTable = variantTable{"group-commit", []variant{
	{"stock", nil},
	{"group", func(c *appliance.Config) { c.GroupCommit = true }},
}}

// AblationGroupCommit measures the WAL append path under concurrent
// writers: the stock one-unsynced-write-per-mutation behaviour against
// group commit (batched appends, one fsync per batch). Unlike the
// figure ablations this one runs in real time against a real on-disk
// WAL — virtual time would hide the syscall costs it exists to show.
func AblationGroupCommit(payloadKB, writers, putsPerWriter int) (*AblationResult, error) {
	payloadKB = orDefault(payloadKB, 64)
	writers = orDefault(writers, 8)
	putsPerWriter = orDefault(putsPerWriter, 16)
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d writers x %d puts of %d KB against an on-disk WAL (real time)", writers, putsPerWriter, payloadKB),
		"stock: one unsynced write per put; group: batched appends, one fsync per batch",
		"group commit upgrades durability (acked puts survive a crash) while amortising the flush",
	}}
	blob := gsh.Pad([]byte("echo x\n"), payloadKB<<10)
	for _, v := range groupCommitTable.all {
		// The appliance hands this knob to its database; the study drives
		// the database directly.
		var cfg appliance.Config
		if v.knobs != nil {
			v.knobs(&cfg)
		}
		err := withTempDB(blobdb.Options{GroupCommit: cfg.GroupCommit}, func(_ blobdb.Options, db *blobdb.DB) error {
			defer db.Close()
			tab := db.Table("bench")
			start := time.Now()
			err := fanOut(writers, 0, func(w int) error {
				for i := 0; i < putsPerWriter; i++ {
					if err := tab.Put(fmt.Sprintf("w%02d-k%03d", w, i), nil, blob); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			walWrites, walSyncs := db.WALStats()
			if err := db.Close(); err != nil {
				return err
			}
			row := res.at("group-commit", v.name)
			row("wall_ms", float64(elapsed.Milliseconds()))
			row("puts_per_s", float64(writers*putsPerWriter)/elapsed.Seconds())
			row("wal_writes", float64(walWrites))
			row("wal_syncs", float64(walSyncs))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
