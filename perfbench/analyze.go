package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"dragonvar/internal/core"
	"dragonvar/internal/dataset"
	"dragonvar/internal/nn"
)

// The analysis settings are the experiment suite's full ones (10 RFE
// folds, 3 forecast folds, the forecaster's default network) with both
// models' training samples capped at 100 per dataset: the benchmark's
// stated input size. Most datasets exceed the cap, so an analysis costs
// about the same on every seed; uncapped, its cost follows the campaign's
// dataset sizes, which vary by tens of percent between seeds. The
// forecast window (m=3, k=2) fits every application's step count, so no
// non-empty dataset is left without windows.
var (
	neighborhoodOpts = core.NeighborhoodOptions{}
	deviationOpts    = core.DeviationOptions{Folds: 10, MaxSamples: 100, Workers: 2}
	forecastOpts     = core.ForecastOptions{Folds: 3, Workers: 2, NN: nn.Config{EmbedDim: 8, HiddenDim: 16,
		Epochs: 35, BatchSize: 16, LearningRate: 0.01, UseAttention: true, MaxSamples: 100}}
	forecastSpec = core.ForecastSpec{M: 3, K: 2}
)

// datasetAnalysis is one dataset's analysis outcome, as the gates compare it.
type datasetAnalysis struct {
	Dataset       string   `json:"dataset"`
	TopUsers      []string `json:"top_users"`
	DeviationMAPE float64  `json:"deviation_mape"`
	Samples       int      `json:"deviation_samples"`
	ForecastMAPE  float64  `json:"forecast_mape"`
	Windows       int      `json:"forecast_windows"`
}

// analysis is one pass of the paper's analyses over a campaign.
type analysis struct {
	results                              []datasetAnalysis
	neighborhoodS, deviationS, forecastS float64
	totalS                               float64
}

// analyze runs core.AnalyzeNeighborhood, core.AnalyzeDeviation and
// core.Forecast on every non-empty dataset of camp.
func analyze(ctx context.Context, camp *dataset.Campaign, seed int64) (*analysis, error) {
	a := &analysis{}
	var err error
	a.totalS, err = timed(ctx, "analysis", func(ctx context.Context) error {
		for _, ds := range camp.Datasets {
			if len(ds.Runs) == 0 {
				continue
			}
			r := datasetAnalysis{Dataset: ds.Name}
			d, _ := timed(ctx, "core.AnalyzeNeighborhood", func(context.Context) error {
				nb := core.AnalyzeNeighborhood(ds, neighborhoodOpts)
				r.TopUsers = nb.TopUsers(len(nb.Users))
				return nil
			})
			a.neighborhoodS += d
			d, _ = timed(ctx, "core.AnalyzeDeviation", func(context.Context) error {
				dev := core.AnalyzeDeviation(ds, deviationOpts, seed)
				r.DeviationMAPE, r.Samples = dev.MAPE, dev.Samples
				return nil
			})
			a.deviationS += d
			d, _ = timed(ctx, "core.Forecast", func(context.Context) error {
				fc := core.Forecast(ds, forecastSpec, forecastOpts, seed)
				r.ForecastMAPE, r.Windows = fc.MAPE, fc.Windows
				return nil
			})
			a.forecastS += d
			a.results = append(a.results, r)
		}
		return nil
	})
	return a, err
}

// checkAnalysis applies the analysis gates and counts the analyses: each
// non-empty dataset gets three, and one returning the -1 "no data"
// sentinel has failed. Every pass over a campaign must equal the run's
// first pass over it and the values recorded for its seed.
func (b *bench) checkAnalysis(a *analysis, first []datasetAnalysis, seed int64) {
	failed := 0
	for _, r := range a.results {
		if r.DeviationMAPE < 0 {
			failed++
		}
		if r.ForecastMAPE < 0 {
			failed++
		}
	}
	b.count(3*len(a.results), failed)
	b.check(reflect.DeepEqual(a.results, first), "seed %d analysis differs between passes of one run: %+v vs %+v", seed, a.results, first)
	if ref := b.ref(seed); ref != nil && ref.Analysis != nil {
		b.check(reflect.DeepEqual(a.results, ref.Analysis), "seed %d analysis %+v, recorded %+v", seed, a.results, ref.Analysis)
	}
}

// measureAnalyze is the analyze workload: per instance, generating the
// campaign is the set-up and one pass of the analyses over it the unit of
// work.
func measureAnalyze(ctx context.Context, b *bench) error {
	var setup []float64
	camps := make([]*dataset.Campaign, b.p.analyses) // only the datasets stay in memory
	for j := range camps {
		g, err := generate(ctx, campaignConfig(subSeed(b.seed, j), b.p.days, 2))
		if err != nil {
			return err
		}
		b.checkCampaign(g, g.digest)
		camps[j], setup = g.camp, append(setup, g.newS+g.runS)
	}
	work := make([][]float64, len(camps))
	first := make([][]datasetAnalysis, len(camps))
	calls := 0
	err := b.cycles(time.Now(), func() error {
		calls = 0
		for j, camp := range camps {
			a, err := analyze(ctx, camp, camp.Seed)
			if err != nil {
				return err
			}
			if first[j] == nil {
				first[j] = a.results
			}
			b.checkAnalysis(a, first[j], camp.Seed)
			work[j] = append(work[j], a.totalS)
			calls += 3 * len(a.results)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "analyze: %d campaigns x %d cycles, %d analyses per cycle\n", len(camps), len(work[0]), calls)
	b.set(mSetup, "s", median(setup))
	b.set(mWork, "s", perInstance(work))
	b.set(mThroughput, "1/s", float64(calls)/(perInstance(work)*float64(len(work))))
	return nil
}

func onceAnalyze(ctx context.Context, b *bench) error {
	g, err := generate(ctx, campaignConfig(b.seed, b.p.days, 2))
	if err != nil {
		return err
	}
	b.checkCampaign(g, g.digest)
	a, err := analyze(ctx, g.camp, b.seed)
	if err != nil {
		return err
	}
	b.checkAnalysis(a, a.results, b.seed)
	return nil
}
