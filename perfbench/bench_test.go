package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"
)

// metricName is the shape every workload and metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// declared is BENCHMARK.json's metric and workload lists.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyParams shrinks every workload so a test runs each in seconds.
func tinyParams() params {
	p := defaultParams()
	p.days, p.campaigns, p.analyses, p.servers = 10, 2, 2, 2
	p.rounds, p.handlerN = 50, 20
	p.serve.nominalN, p.serve.warmN, p.serve.probeN = 100, 20, 100
	p.serve.stepsDown, p.serve.stepsUp = 2, 2
	return p
}

// scratch points the benchmark's outputs into a test directory.
func scratch(t *testing.T) {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = old })
}

func TestNamesAreWellFormed(t *testing.T) {
	d := readDeclared(t)
	seen := map[string]bool{}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q declared twice", n)
		}
		seen[n] = true
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
}

// TestDeclaredMetricsEmitted runs every workload untraced and traced and
// requires exactly the declared metrics, with their units, every gate
// passing and nothing failed.
func TestDeclaredMetricsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	scratch(t)
	d := readDeclared(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, 3, 0.2, traced, tinyParams())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if unit, ok := want[traced][n]; !ok {
					t.Errorf("%s traced=%v emits undeclared metric %q", name, traced, n)
				} else if unit != m.Unit {
					t.Errorf("%s traced=%v: %s in %q, declared %q", name, traced, n, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, n, m.Value)
				}
			}
			if len(got) != len(want[traced]) {
				sort.Strings(got)
				t.Errorf("%s traced=%v emits %d metrics, %d declared: %v", name, traced, len(got), len(want[traced]), got)
			}
		}
	}
}

// fixture is one tiny campaign, its analysis and a provisioned server,
// against which the gates are exercised.
type fixture struct {
	b   *bench
	g   *generated
	a   *analysis
	p   *provisioned
	ws  windowSet
	out []outcome
	ref *refEntry // the fixture's own values, recorded for its seed
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	scratch(t)
	ctx := context.Background()
	b := &bench{p: tinyParams(), seed: seed, seconds: 0.1, dir: t.TempDir()}
	p, err := provision(ctx, b, t.TempDir(), seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.close() })
	a, err := analyze(ctx, p.camp, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := &generated{camp: p.camp, digest: p.digest, units: p.camp.TotalRuns()}
	ws := makeWindows(seed, 9, 50, p.m, p.h, b.p.serve)
	out := drive(ctx, p, ws, 500)
	f := &fixture{b: b, g: g, a: a, p: p, ws: ws, out: out,
		ref: &refEntry{Campaign: p.digest, Analysis: a.results, ServeProbe: p.probe}}
	b.refs = &references{Days: b.p.days, Seeds: map[string]*refEntry{strconv.FormatInt(seed, 10): f.ref}}
	return f
}

// gates runs every gate on the fixture's artifacts and returns the
// failures.
func (f *fixture) gates() []string {
	f.b.gateFailures = nil
	f.b.checkCampaign(f.g, f.g.digest)
	f.b.checkAnalysis(f.a, f.a.results, f.b.seed)
	f.b.checkServed(f.p, f.ws, f.out)
	f.b.checkProbe(f.p.probe, f.b.seed)
	return f.b.gateFailures
}

func TestGatesTripOnTamperedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions a server")
	}
	f := newFixture(t, 5)
	if fails := f.gates(); len(fails) != 0 {
		t.Fatalf("untampered fixture fails its gates: %v", fails)
	}
	tamper := map[string]func(){
		"campaign digest": func() { f.ref.Campaign = "0000000000000000" },
		"analysis MAPE": func() {
			f.ref.Analysis = append([]datasetAnalysis(nil), f.ref.Analysis...)
			f.ref.Analysis[0].DeviationMAPE += 1e-12
		},
		"forecaster probe": func() { f.ref.ServeProbe = "0000000000000000" },
		"served forecast": func() {
			for i := range f.out {
				if f.out[i].ok() {
					f.out[i].pred = math.Nextafter(f.out[i].pred, math.Inf(1))
					return
				}
			}
		},
	}
	for name, apply := range tamper {
		saved := *f.ref
		savedOut := append([]outcome(nil), f.out...)
		apply()
		if fails := f.gates(); len(fails) == 0 {
			t.Errorf("tampered %s: no gate tripped", name)
		}
		*f.ref, f.out = saved, savedOut
	}

	// the serial/parallel gate: a campaign compared against another digest
	f.b.gateFailures = nil
	f.b.checkCampaign(f.g, "0000000000000000")
	if len(f.b.gateFailures) == 0 {
		t.Error("campaign against a different first digest: no gate tripped")
	}
}

// TestInstanceReferencesTrip records a seed's instances with --record's
// code into a scratch reference file and runs every workload against it:
// each passes on the recorded values, and each trips when the entry of its
// instance 1, not the run's own seed, is tampered with.
func TestInstanceReferencesTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("records a seed and runs every workload")
	}
	scratch(t)
	ctx := context.Background()
	p := tinyParams()
	const seed = 4
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"days": %g}`, p.days)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := recordSeed(ctx, p, seed, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := strconv.FormatInt(subSeed(seed, 1), 10)
	tamper := map[string]func(*refEntry){
		"campaign-adaptive": func(e *refEntry) { e.Campaign = "0000000000000000" },
		"analyze":           func(e *refEntry) { e.Analysis[0].ForecastMAPE += 1e-12 },
		"serve":             func(e *refEntry) { e.ServeProbe = "0000000000000000" },
	}
	for _, name := range workloadNames() {
		for _, tampered := range []bool{false, true} {
			refs, err := parseReferences(blob)
			if err != nil {
				t.Fatal(err)
			}
			e := refs.Seeds[key]
			if e == nil || e.Campaign == "" || len(e.Analysis) == 0 || e.ServeProbe == "" {
				t.Fatalf("instance 1 (seed %s) recorded as %+v", key, e)
			}
			if tampered {
				tamper[name](e)
			}
			b := &bench{p: p, seed: seed, seconds: 0.1, dir: t.TempDir(), refs: refs}
			if err := workloads[name].measure(ctx, b); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tampered && len(b.gateFailures) == 0 {
				t.Errorf("%s: tampered instance-1 reference, no gate tripped", name)
			}
			if !tampered && len(b.gateFailures) != 0 {
				t.Errorf("%s: recorded references fail: %v", name, b.gateFailures)
			}
		}
	}
}

// TestMaxRateBelowFailedNominal: when the nominal phase misses the limit,
// the search probes the rungs below the nominal rate instead of reporting
// the nominal phase's achieved rate.
func TestMaxRateBelowFailedNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions a server")
	}
	f := newFixture(t, 8)
	missed := phaseStats{n: 1, failed: 1, p99: time.Duration(math.MaxInt64), rate: nominalRPS}
	if got := f.b.maxRate(context.Background(), f.p, f.b.p.serve, missed); got <= 0 || got >= nominalRPS {
		t.Errorf("max rate %g after a failed nominal phase, want a passing rate below %g", got, nominalRPS)
	}
	if len(f.b.gateFailures) != 0 {
		t.Errorf("probes fail their gates: %v", f.b.gateFailures)
	}
}

func TestDifferentSeedsDifferentInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions servers")
	}
	a, b := newFixture(t, 6), newFixture(t, 7)
	if a.g.digest == b.g.digest {
		t.Errorf("seeds 6 and 7 generate the same campaign %s", a.g.digest)
	}
	if a.p.probe == b.p.probe {
		t.Errorf("seeds 6 and 7 train the same forecaster %s", a.p.probe)
	}
	if string(a.ws.payloads[len(a.ws.payloads)-1]) == string(b.ws.payloads[len(b.ws.payloads)-1]) {
		t.Error("seeds 6 and 7 send the same request windows")
	}
	for _, f := range []*fixture{a, b} {
		if fails := f.gates(); len(fails) != 0 {
			t.Errorf("seed %d fails its gates: %v", f.b.seed, fails)
		}
	}
}

// TestAnchorDigest pins the canonical-JSON campaign digest of the 30-day,
// seed-42 adaptive campaign.
func TestAnchorDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 30-day campaign")
	}
	g, err := generate(context.Background(), campaignConfig(42, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g.digest != "a836983eb2f81861" {
		t.Errorf("30-day seed-42 campaign digest %s, want a836983eb2f81861", g.digest)
	}
}

func TestQuantile(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	if q := quantile(v, 0.99); q != 989 {
		t.Errorf("p99 of 0..999 = %v, want 989 (ten values beyond)", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
