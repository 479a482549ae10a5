package experiments

// Params is what cmd/experiments hands every study: the rig options and
// the three sizes its flags expose.
type Params struct {
	Options Options
	// Jobs is the job count of the smalljobs study (-jobs).
	Jobs int
	// ReplayRecords sizes the blobdb study's cold-boot replay
	// (-replay-records).
	ReplayRecords int
	// TenancyBurst is the tenancy study's hog burst (-tenancy-burst).
	TenancyBurst int
}

// rendered is what every study returns: something that prints itself. A
// result written as a .csv artifact also has CSV() string; one written
// as .json is marshalled as it stands.
type rendered = interface{ Render() string }

// Study is one entry of the evaluation: what cmd/experiments can run.
type Study struct {
	// Name selects the study: -<Name>, except the three figures, which
	// -fig N selects as fig<N>.
	Name string
	// Help is the flag's usage line.
	Help string
	// Artifact is the file the result is written to under -out, or ""
	// for a study that only prints.
	Artifact string
	Run      func(Params) (interface{ Render() string }, error)
}

// several renders a study made of several results, a blank line between.
type several []rendered

func (s several) Render() string {
	out := ""
	for i, r := range s {
		if i > 0 {
			out += "\n"
		}
		out += r.Render()
	}
	return out
}

func figure(f func(Options) (*Result, error)) func(Params) (rendered, error) {
	return func(p Params) (rendered, error) { return f(p.Options) }
}

// Studies lists every study in the order -all runs them, each at the
// sizes the checked-in results were run with.
var Studies = []Study{
	{"fig6", "regenerate Figure 6: Web-service execution, small file", "fig6.csv", figure(Fig6)},
	{"fig7", "regenerate Figure 7: Web-service execution, ~5 MB file", "fig7.csv", figure(Fig7)},
	{"fig8", "regenerate Figure 8: upload and Web-service generation", "fig8.csv", figure(Fig8)},
	{"scalability", "run the §VIII-D concurrency sweep", "scalability.csv", func(p Params) (rendered, error) {
		return Scalability(p.Options, []int{1, 2, 4, 8}, 512)
	}},
	{"smalljobs", "run the §VIII-B many-small-jobs check", "", func(p Params) (rendered, error) {
		return SmallJobs(p.Options, p.Jobs, 8)
	}},
	{"ablations", "run the design-choice ablations", "", func(p Params) (rendered, error) {
		var all several
		for _, run := range []func() (rendered, error){
			func() (rendered, error) { return AblationDoubleWrite(p.Options, 1024) },
			func() (rendered, error) { return AblationStagingCache(p.Options, 768, 3) },
			func() (rendered, error) { return AblationPolling(p.Options, nil) },
			func() (rendered, error) { return AblationCompression(p.Options, 4096) },
			func() (rendered, error) { return SchedulerPolicies(p.Options.Scale) },
		} {
			res, err := run()
			if err != nil {
				return nil, err
			}
			all = append(all, res)
		}
		return all, nil
	}},
	{"hotpath", "run the invocation hot-path ablations", "hotpath.json", func(p Params) (rendered, error) {
		res, err := AblationHotPath(p.Options, 256, 3)
		if err != nil {
			return nil, err
		}
		gc, err := AblationGroupCommit(64, 8, 16)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, gc.Rows...)
		res.Notes = append(res.Notes, gc.Notes...)
		return res, nil
	}},
	{"pollhub", "run the poll-hub output-collection ablation", "pollhub.json", func(p Params) (rendered, error) {
		return AblationPollHub(p.Options, 64)
	}},
	{"submit", "run the coalesced-submission front-end ablation", "submit.json", func(p Params) (rendered, error) {
		return AblationSubmit(p.Options, 64)
	}},
	{"stage", "run the chunked-staging data-plane ablation", "stage.json", func(p Params) (rendered, error) {
		return AblationStage(p.Options, 0)
	}},
	{"placement", "run the data-aware placement ablation", "placement.json", func(p Params) (rendered, error) {
		return AblationPlacement(p.Options, 64, nil)
	}},
	{"blobdb", "run the storage-engine sharding/compaction/replay ablation", "blobdb.json", func(p Params) (rendered, error) {
		return AblationBlobDB(p.ReplayRecords)
	}},
	{"trace", "run the traced small/large paper/production breakdown", "trace.json", func(p Params) (rendered, error) {
		return TraceBreakdown(p.Options, 0)
	}},
	{"fleet", "run the consistent-hash fleet scale-out ablation (1/4/16 appliances + kill-one failover)", "fleet.json", func(p Params) (rendered, error) {
		return AblationFleet(p.Options, nil, 64)
	}},
	{"tenancy", "run the multi-tenant noisy-neighbor ablation (hog burst vs victim p99, off/on)", "tenancy.json", func(p Params) (rendered, error) {
		return AblationTenancy(p.Options, p.TenancyBurst)
	}},
	{"baseline", "compare raw JSE access with the SaaS path", "", func(p Params) (rendered, error) {
		return BaselineJSE(p.Options, 256)
	}},
}
