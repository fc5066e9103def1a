package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/topology"
)

// params sizes the workloads. The benchmark always runs defaultParams;
// tests shrink them.
type params struct {
	days float64 // campaign length every workload simulates
	// Instances per run: each workload simulates, analyses or provisions
	// this many campaigns, drawn from seeds derived from the run's seed, so
	// that a run's cost depends little on which campaigns one seed draws.
	campaigns, analyses, servers int
	serve                        serveParams
	rounds                       int // netsim round-loop iterations timed in the traced run
	handlerN                     int // one-at-a-time requests per serving probe in the traced run
}

func defaultParams() params {
	return params{days: 30, campaigns: 8, analyses: 6, servers: 4, serve: defaultServeParams(),
		rounds: 2000, handlerN: 200}
}

// campaignConfig is the campaign every workload simulates: the small
// machine, adaptive routing, first-fit placement, no faults.
func campaignConfig(seed int64, days float64, workers int) cluster.Config {
	cfg := cluster.Config{Machine: topology.Small(), Days: days, Seed: seed,
		Placement: "firstfit", Workers: workers}
	cfg.Net.Routing = "adaptive"
	return cfg
}

// generated is one built machine and the digested campaign it ran.
type generated struct {
	c      *cluster.Cluster
	camp   *dataset.Campaign
	digest string
	units  int     // work units the campaign scheduled
	newS   float64 // cluster.New
	runS   float64 // RunCampaign through the digest
	// the two parts of runS
	campaignS, digestS float64
}

// generate builds the machine and runs the campaign with cfg, inside spans
// named after the public calls.
func generate(ctx context.Context, cfg cluster.Config) (*generated, error) {
	g := &generated{}
	var units atomic.Int64
	cfg.Progress = func(_, total int) { units.Store(int64(total)) }
	var err error
	g.newS, err = timed(ctx, "cluster.New", func(context.Context) (err error) {
		g.c, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	g.runS, err = timed(ctx, "campaign", func(ctx context.Context) error {
		var err error
		if g.campaignS, err = timed(ctx, "cluster.RunCampaign", func(context.Context) (err error) {
			g.camp, err = g.c.RunCampaign()
			return err
		}); err != nil {
			return err
		}
		g.digestS, err = timed(ctx, "dataset.digest", func(context.Context) (err error) {
			g.digest, err = campaignDigest(g.camp)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	g.units = max(int(units.Load()), g.camp.TotalRuns())
	return g, nil
}

// campaignDigest is SHA-256 over the campaign's canonical JSON encoding
// (fixed field order, sorted map keys, shortest round-trip floats), as
// 16 hex digits. Unlike a hash of gob bytes it cannot move when gob's
// process-wide type ids shift.
func campaignDigest(camp *dataset.Campaign) (string, error) {
	blob, err := json.Marshal(camp)
	if err != nil {
		return "", fmt.Errorf("campaign digest: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), nil
}

// checkCampaign applies the campaign gates: the digest equals the first
// digest a run saw for the same campaign seed (the serial one, when there
// is one) and the one recorded for the seed. It counts the campaign's
// units and those that did not complete.
func (b *bench) checkCampaign(g *generated, first string) {
	b.check(g.digest == first, "campaign %d digest %s differs from this run's first %s", g.camp.Seed, g.digest, first)
	if ref := b.ref(g.camp.Seed); ref != nil {
		b.check(g.digest == ref.Campaign, "campaign %d digest %s, recorded %s", g.camp.Seed, g.digest, ref.Campaign)
	}
	b.count(g.units, g.units-g.camp.TotalRuns())
}

// measureCampaign is the campaign-adaptive workload: per instance,
// cluster.New is the set-up and RunCampaign with 2 workers through the
// digest the unit of work. A serial campaign of instance 0 first warms
// the process and is the serial side of the serial/parallel identity gate.
func measureCampaign(ctx context.Context, b *bench) error {
	serial, err := generate(ctx, campaignConfig(b.seed, b.p.days, 1))
	if err != nil {
		return err
	}
	b.checkCampaign(serial, serial.digest)
	first := []string{serial.digest}
	var setup []float64
	work := make([][]float64, b.p.campaigns)
	runs := 0
	err = b.cycles(time.Now(), func() error {
		runs = 0
		for j := range work {
			g, err := generate(ctx, campaignConfig(subSeed(b.seed, j), b.p.days, 2))
			if err != nil {
				return err
			}
			if j == len(first) {
				first = append(first, g.digest)
			}
			b.checkCampaign(g, first[j])
			setup, work[j] = append(setup, g.newS), append(work[j], g.runS)
			runs += g.camp.TotalRuns()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign-adaptive: %d campaigns x %d cycles, %d runs; seed %d digest %s\n",
		len(work), len(work[0]), runs, b.seed, serial.digest)
	b.set(mSetup, "s", median(setup))
	b.set(mWork, "s", perInstance(work))
	b.set(mThroughput, "1/s", float64(runs)/(perInstance(work)*float64(len(work))))
	return nil
}

func onceCampaign(ctx context.Context, b *bench) error {
	g, err := generate(ctx, campaignConfig(b.seed, b.p.days, 2))
	if err != nil {
		return err
	}
	b.checkCampaign(g, g.digest)
	return nil
}
