package main

import (
	"fmt"
	"time"

	"repro/internal/appliance"
	"repro/internal/blobdb"
)

// The two supported appliance configurations. This file is the only
// place knob names appear, so a change that renames or removes knobs
// edits one file of the benchmark.
//
// Both run on the real clock with a nil Probe and a zero Cost: nothing
// burns modelled CPU, so what is measured is what the Go code costs.
// PollInterval is 2 ms because the stock 9 s is a virtual-time value
// (it reproduces the 3-second sampling buckets of the paper's figures)
// and would turn a real-clock run into a sleep benchmark.

// profilePaper is the paper's behaviour: every extension off. Each
// invocation re-inflates the blob, logs on to MyProxy, re-stages the
// whole executable and is collected by its own tentative poller.
func profilePaper() appliance.Config {
	return appliance.Config{
		PollInterval: 2 * time.Millisecond,
	}
}

// profileProd is the production configuration: every cache and batched
// path on. SubmitHub stays off because its 5 ms coalescing window turns
// a closed loop of nproc callers into a timer benchmark (every op would
// wait out the window with nothing to coalesce with), and ReplicateTopK
// stays off because background pushes to sibling sites are noise the
// window cannot attribute to an op.
func profileProd() appliance.Config {
	return appliance.Config{
		PollInterval:       2 * time.Millisecond,
		SessionCache:       true,
		StatsTTL:           30 * time.Second,
		BlobCacheBytes:     64 << 20,
		StagingCache:       true,
		DirectDBWrite:      true,
		PushEvents:         true,
		CoalesceStaging:    true,
		ChunkedStaging:     true,
		WireCompression:    true,
		DataAwarePlacement: true,
	}
}

// withDiskDB layers the on-disk storage engine over cfg: sharded WALs
// with group commit and the background compactor, rooted at dir.
func withDiskDB(cfg appliance.Config, dir string) appliance.Config {
	cfg.DBDir = dir
	cfg.WALShards = 4
	cfg.GroupCommit = true
	cfg.AutoCompact = true
	return cfg
}

// The blobdb rungs open the database directly; these are the storage
// halves of the two profiles above.

// blobOptionsDisk is withDiskDB's storage engine.
func blobOptionsDisk(dir string) blobdb.Options {
	return blobdb.Options{Dir: dir, WALShards: 4, GroupCommit: true, AutoCompact: true}
}

// blobOptionsCached is profileProd's decompressed-blob cache.
func blobOptionsCached() blobdb.Options {
	return blobdb.Options{BlobCacheBytes: 64 << 20}
}

func profileByName(name string) (appliance.Config, error) {
	switch name {
	case "paper":
		return profilePaper(), nil
	case "prod":
		return profileProd(), nil
	}
	return appliance.Config{}, fmt.Errorf("unknown profile %q", name)
}
