package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"dragonvar/internal/dataset"
)

// referenceJSON holds the gate values recorded per seed, built into the
// binary so a run needs no file beside it.
//
//go:embed reference.json
var referenceJSON []byte

// recordPath is the file --record updates, relative to the checkout root.
const recordPath = "perfbench/reference.json"

// refEntry is what the gates expect for one campaign seed. Every instance
// seed a run of a recorded seed derives has an entry of its own, holding
// the values of the workloads that use that instance.
type refEntry struct {
	Campaign   string            `json:"campaign"`              // campaignDigest of the 2-worker campaign
	Analysis   []datasetAnalysis `json:"analysis,omitempty"`    // one analysis pass
	ServeProbe string            `json:"serve_probe,omitempty"` // forecastProbe of the served forecaster
}

type references struct {
	Config string               `json:"config"`
	Days   float64              `json:"days"` // campaign length the values belong to
	Seeds  map[string]*refEntry `json:"seeds"`
}

func parseReferences(blob []byte) (*references, error) {
	var r references
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("reference values: %w", err)
	}
	return &r, nil
}

// ref returns the values recorded for a campaign seed at the run's
// campaign length, or nil.
func (b *bench) ref(seed int64) *refEntry {
	if b.refs == nil || b.p.days != b.refs.Days {
		return nil
	}
	return b.refs.Seeds[strconv.FormatInt(seed, 10)]
}

// recordSeed measures the gate values of every instance a run with seed
// derives, with the workloads' own code, and stores them in the reference
// file at path.
func recordSeed(ctx context.Context, p params, seed int64, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	refs, err := parseReferences(blob)
	if err != nil {
		return err
	}
	if refs.Days != p.days {
		return fmt.Errorf("reference file holds %g-day values, the benchmark runs %g days", refs.Days, p.days)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if refs.Seeds == nil {
		refs.Seeds = map[string]*refEntry{}
	}
	b := &bench{p: p, seed: seed, dir: dir}
	for j := 0; j < max(p.campaigns, p.analyses, p.servers); j++ {
		s := subSeed(seed, j)
		entry := &refEntry{}
		var camp *dataset.Campaign
		if j < p.servers {
			prov, err := provision(ctx, b, fmt.Sprintf("%s/store%d", dir, j), s)
			if err != nil {
				return err
			}
			if err := prov.close(); err != nil {
				return err
			}
			camp, entry.Campaign, entry.ServeProbe = prov.camp, prov.digest, prov.probe
		} else {
			g, err := generate(ctx, campaignConfig(s, p.days, 2))
			if err != nil {
				return err
			}
			b.checkCampaign(g, g.digest)
			camp, entry.Campaign = g.camp, g.digest
		}
		if j < p.analyses {
			a, err := analyze(ctx, camp, s)
			if err != nil {
				return err
			}
			b.checkAnalysis(a, a.results, s)
			entry.Analysis = a.results
		}
		if len(b.gateFailures) > 0 || b.failed > 0 {
			return fmt.Errorf("seed %d fails its own gates (%d failed operations): %v", s, b.failed, b.gateFailures)
		}
		refs.Seeds[strconv.FormatInt(s, 10)] = entry
		fmt.Fprintf(os.Stderr, "perfbench: recorded seed %d instance %d (campaign seed %d): campaign %s, %d datasets, probe %q\n",
			seed, j, s, entry.Campaign, len(entry.Analysis), entry.ServeProbe)
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing references: %w", err)
	}
	return nil
}
