package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"repro/internal/appliance"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
)

// The knobs study weighs every knob appliance.Production sets on the
// profile it ships in: Production without it, and Paper with it, each
// against its profile, on the three figures and four workloads the knobs
// were built for.

// knobs are the knobs the study weighs: the fields of appliance.Config
// where Production("") differs from Paper(), in declaration order.
var knobs = []string{"StagingCache", "DirectDBWrite", "SessionCache", "StatsTTL", "PushEvents",
	"CoalesceStaging", "ChunkedStaging", "WireCompression", "DataAwarePlacement"}

// knobConfig is one configuration of the study: a name that says which
// knobs it set, and the configuration.
type knobConfig struct {
	name string
	cfg  appliance.Config
}

// withKnobs returns c with each named knob as from has it.
func withKnobs(c, from appliance.Config, names ...string) appliance.Config {
	dst, src := reflect.ValueOf(&c).Elem(), reflect.ValueOf(from)
	for _, name := range names {
		dst.FieldByName(name).Set(src.FieldByName(name))
	}
	return c
}

// knobConfigs is Paper and Production, then, for each knob K, Paper+K and
// Production−K. Config.Validate says which knob acts only through
// another: Paper+K also sets the knob K needs to validate, and
// Production−K also drops the knobs that need K.
func knobConfigs() []knobConfig {
	paper, prod := appliance.Paper(), appliance.Production("")
	needs := map[string]string{}
	for _, k := range knobs {
		if withKnobs(paper, prod, k).Validate() == nil {
			continue
		}
		for _, other := range knobs {
			if withKnobs(paper, prod, other, k).Validate() == nil {
				needs[k] = other
				break
			}
		}
	}
	configs := []knobConfig{{"paper", paper}, {"production", prod}}
	for _, k := range knobs {
		add := []string{k}
		if need, ok := needs[k]; ok {
			add = []string{need, k}
		}
		drop := []string{k}
		for _, other := range knobs {
			if needs[other] == k {
				drop = append(drop, other)
			}
		}
		configs = append(configs,
			knobConfig{"paper+" + strings.Join(add, "+"), withKnobs(paper, prod, add...)},
			knobConfig{"production-" + strings.Join(drop, "-"), withKnobs(prod, paper, drop...)})
	}
	return configs
}

// oneSecondJob is the workloads' program before padding.
const oneSecondJob = "compute 1s\necho ok\n"

// knobScenarios are the workloads every configuration runs, each on a
// rig of its own.
var knobScenarios = []struct {
	name string
	run  func(*rig) (measurement, error)
}{
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	// Eight sequential invocations of one staged 64 KB service: what the
	// session cache, the stats TTL and the staging cache save per call.
	{"hot8", func(r *rig) (measurement, error) { return r.backToBack("hotjob.gsh", 64, 8) }},
	// A burst of 16 first invocations of one 192 KB service: what
	// coalescing and the push collector save under load.
	{"cold16", func(r *rig) (measurement, error) {
		svc, err := r.deploy("burstjob.gsh", padded(oneSecondJob, 192<<10))
		if err != nil {
			return measurement{}, err
		}
		return r.measure(func() error { return svc.burst(16) })
	}},
	// A 1536 KB service edited in place, re-published and invoked: what
	// chunk dedup and the stored gzip save on the second version.
	{"republish", func(r *rig) (measurement, error) { return r.republish(1536) }},
	// A burst of 4 invocations of a 1536 KB service whose bytes sit where
	// the load broker would not send it: what possession-aware placement
	// saves. The chunk client's four workers start on the first four
	// chunks at once; at 768 KB those were three full ones and a short
	// one, which took the WAN in scheduler order, so the row moved.
	{"placement", func(r *rig) (measurement, error) { return r.placementBurst(1536, 4) }},
}

// Knobs runs every configuration of knobConfigs on every scenario of
// knobScenarios and reports, per scenario and configuration, the virtual
// duration, the appliance host's network bytes out and in and disk write
// bytes, and the requests it sent the grid.
func Knobs(opts Options) (*AblationResult, error) {
	return runKnobs(opts, knobConfigs())
}

// runKnobs is Knobs over configs: each scenario and configuration on a
// rig in a bubble of its own, GOMAXPROCS of them side by side (bubble.Run
// builds the encoders they share before each starts), reported scenario
// by scenario in configs' order.
func runKnobs(opts Options, configs []knobConfig) (*AblationResult, error) {
	res := &AblationResult{Notes: []string{
		"paper and production are the two supported profiles; paper+K turns one of production's knobs on, production-K turns it off (with what needs it: WireCompression and DataAwarePlacement need ChunkedStaging)",
		"fig6/fig7/fig8: the figures' workloads; hot8: 8 sequential calls of a staged 64 KB service; cold16: a burst of 16 first calls of a 192 KB service, started 1 ms apart; republish: a 1536 KB service edited in place mid-file, re-published and called; placement: a burst of 4 calls of a 1536 KB service staged only where the load broker would not send them",
		"duration_s is the measured window's virtual time; net_out_b, net_in_b and disk_write_b are the appliance host's, as the figures count them (the WAN to the grid and the LAN to the user)",
		"grid_rpcs: MyProxy logons, statistics fetches, stagings (one PUT, or a chunk probe, the chunks shipped and a commit), submits, status polls, output fetches, event streams and possession probes, from the counters core keeps",
	}}
	ms := make([]measurement, len(knobScenarios)*len(configs))
	err := fanOut(len(ms), runtime.GOMAXPROCS(0), func(i int) error {
		sc, config := knobScenarios[i/len(configs)], configs[i%len(configs)]
		o := opts
		o.Appliance = config.cfg
		if err := withRig(o, func(r *rig) (err error) { ms[i], err = sc.run(r); return err }); err != nil {
			return fmt.Errorf("experiments: knobs %s %s: %w", sc.name, config.name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		row := res.at(knobScenarios[i/len(configs)].name, configs[i%len(configs)].name)
		row("duration_s", m.seconds)
		row("net_out_b", m.sum["net_out_total_b"])
		row("net_in_b", m.sum["net_in_total_b"])
		row("disk_write_b", m.sum["disk_write_total_b"])
		row("grid_rpcs", float64(m.gridRPCs))
	}
	return res, nil
}

// backToBack deploys a fileKB one-second job and measures invocations
// sequential calls of it.
func (r *rig) backToBack(fileName string, fileKB, invocations int) (measurement, error) {
	svc, err := r.deploy(fileName, padded(oneSecondJob, fileKB<<10))
	if err != nil {
		return measurement{}, err
	}
	return r.measure(func() error {
		for i := 0; i < invocations; i++ {
			if _, err := svc.call(nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// republish deploys a compressible fileKB program and calls it, deletes
// it, and measures publishing the program edited in place and calling it.
func (r *rig) republish(fileKB int) (measurement, error) {
	program := compressibleProgram(fileKB << 10)
	edited := perturbProgram(program)
	if len(edited) != len(program) || edited == program {
		return measurement{}, errors.New("experiments: republish payload perturbation failed")
	}
	svc, err := r.deploy("stagejob.gsh", program)
	if err != nil {
		return measurement{}, err
	}
	if _, err := svc.call(nil); err != nil {
		return measurement{}, fmt.Errorf("first version: %w", err)
	}
	if err := r.app.OnServe.DeleteService("StagejobService"); err != nil {
		return measurement{}, err
	}
	return r.measure(func() error {
		svc, err := r.deploy("stagejob.gsh", edited)
		if err == nil {
			_, err = svc.call(nil)
		}
		return err
	})
}

// hogTieBreakSite fills a few slots of the load broker's idle-grid
// favourite (alphabetically first site) with long-running jobs, so the
// next placement prefers the sibling. Returns the site and the hog job
// IDs so the caller can cancel them.
func hogTieBreakSite(r *rig) (*gridsim.Site, []string, error) {
	site, err := r.env.Grid.Site(r.env.Grid.SiteNames()[0])
	if err != nil {
		return nil, nil, err
	}
	const owner = "/O=Repro/CN=alice"
	if err := site.Store().Put(owner, "hog.gsh", []byte("compute 10h\n")); err != nil {
		return nil, nil, err
	}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		j, err := site.Submit(jsdl.Description{Owner: owner, Executable: "hog.gsh"})
		if err != nil {
			return nil, nil, err
		}
		ids = append(ids, j.ID)
	}
	return site, ids, nil
}

// placementBurst deploys a sizeKB one-second job, stages it at the site
// the load broker does not favour, and measures a burst of invocations
// simultaneous calls of it.
func (r *rig) placementBurst(sizeKB, invocations int) (measurement, error) {
	svc, err := r.deploy("burstjob.gsh", padded(oneSecondJob, sizeKB<<10))
	if err != nil {
		return measurement{}, err
	}
	// Priming invocation: shares one grid session with the burst and
	// stages the payload at exactly one site. A few hog jobs briefly load
	// the broker's tie-break favourite so the priming lands at the OTHER
	// site — the bytes end up where load alone would not send the burst,
	// which is exactly the asymmetry a data-aware scorer exists for. The
	// hogs are cancelled before timing starts, so both sites enter the
	// burst idle.
	hogSite, hogIDs, err := hogTieBreakSite(r)
	if err != nil {
		return measurement{}, err
	}
	if _, err := svc.call(nil); err != nil {
		return measurement{}, fmt.Errorf("priming invocation: %w", err)
	}
	for _, id := range hogIDs {
		hogSite.Cancel(id)
	}
	return r.measure(func() error { return svc.burst(invocations) })
}
