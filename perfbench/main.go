// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload — a digested campaign (campaign-adaptive), the paper's
// ML analysis of a campaign (analyze), or forecast serving under an
// open-loop load (serve) — and times it from outside, through calls into
// each module's public functions:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --workload all --seed N --seconds S --trace 0|1
//	perfbench --record --seed N
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics BENCHMARK.json declares. With --trace 1 the process
// records a span around every timed call with internal/telemetry, reports
// the per-layer metrics instead, and writes the spans to
// .bench_build/traces/ for "dfvar trace". The seed fixes every input the
// workload generates. Correctness gates (campaign digests, serial/parallel
// identity, recorded analysis results, served forecasts) fail the run with
// a non-zero exit. --record stores the gates' reference values for every
// campaign seed a run with --seed derives in reference.json. "--workload
// all" runs every workload, each in its own process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"dragonvar/internal/telemetry"
)

// outDir holds everything a run writes, relative to the checkout root
// (tests point it elsewhere).
var outDir = ".bench_build"

// End-to-end metric names, declared in BENCHMARK.json. Every workload
// reports all of them; what a "unit of work" is depends on the workload.
const (
	mSetup      = "setup_s"
	mWork       = "work_s"
	mEndToEnd   = "end_to_end_s"
	mThroughput = "throughput_per_s"
	mRSS        = "max_rss_mb"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one workload run: its inputs, the metrics it has
// measured, its operation counts, and the correctness gates that failed.
type bench struct {
	p       params
	seed    int64
	seconds float64
	dir     string      // this process's scratch directory
	refs    *references // recorded gate values

	attempted, failed int64
	gateFailures      []string
	metrics           map[string]metric
}

func (b *bench) set(name, unit string, v float64) {
	if b.metrics == nil {
		b.metrics = map[string]metric{}
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness gate unless ok holds.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.gateFailures = append(b.gateFailures, fmt.Sprintf(format, args...))
	}
}

// count adds operations to the attempted and failed totals.
func (b *bench) count(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// workload is one benchmark workload. measure runs it untraced and sets
// the end-to-end metrics; once performs one set-up plus one unit of work,
// which the traced run times with and without tracing for the overhead.
type workload struct {
	measure func(context.Context, *bench) error
	once    func(context.Context, *bench) error
}

var workloads = map[string]workload{
	"campaign-adaptive": {measure: measureCampaign, once: onceCampaign},
	"analyze":           {measure: measureAnalyze, once: onceAnalyze},
	"serve":             {measure: measureServe, once: onceServe},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 15, "seconds of timed work per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	record := flag.Bool("record", false, "record the correctness gates' reference values for the instances of -seed in reference.json")
	flag.Parse()

	var err error
	switch {
	case *record:
		err = recordSeed(context.Background(), defaultParams(), *seed, recordPath)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		var res result
		res, err = runWorkload(*name, *seed, *seconds, *trace == 1, defaultParams())
		if err == nil {
			err = printResult(res)
		}
		if err == nil && !res.Correct {
			err = errors.New("correctness gate failed")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and returns its result.
// An error means the run could not be measured at all; a failed gate is
// reported through result.Correct.
func runWorkload(name string, seed int64, seconds float64, traced bool, p params) (result, error) {
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(outDir, name+"-")
	if err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	b := &bench{p: p, seed: seed, seconds: seconds, dir: dir, refs: refs}
	if b.ref(seed) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no reference recorded for seed %d; reference gates skipped, determinism gates kept\n", seed)
	}

	ctx := context.Background()
	if traced {
		reg := telemetry.New()
		reg.SetRole("perfbench")
		telemetry.Enable(reg)
		defer telemetry.Disable()
		err = traceLayers(ctx, b, name, w)
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if mkErr := os.MkdirAll(filepath.Dir(path), 0o755); mkErr != nil {
			return result{}, mkErr
		}
		if flushErr := telemetry.FlushTrace(path); err == nil {
			err = flushErr
		}
	} else {
		err = w.measure(ctx, b)
		b.set(mEndToEnd, "s", b.metrics[mSetup].Value+b.metrics[mWork].Value)
		b.set(mRSS, "MB", maxRSSMB())
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	for _, g := range b.gateFailures {
		fmt.Fprintf(os.Stderr, "perfbench: GATE FAILED: %s\n", g)
	}
	if b.attempted < 1 {
		return result{}, fmt.Errorf("%s: no operation attempted", name)
	}
	return result{Correct: len(b.gateFailures) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: b.metrics}, nil
}

// printResult prints every metric by name with its unit on standard error
// and the JSON result as the last line of standard output.
func printResult(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-36s %14.6g (%d of %d)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", blob)
	return err
}

// runAll runs every workload in a process of its own and prints their
// results; it fails if any run fails or any gate trips.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range workloadNames() {
		fmt.Fprintf(os.Stderr, "== %s\n", name)
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timed runs fn inside a span called name (a no-op when tracing is off)
// and returns its wall time in seconds.
func timed(ctx context.Context, name string, fn func(context.Context) error) (float64, error) {
	ctx, span := telemetry.Start(ctx, name)
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0).Seconds()
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return d, err
}

// cycles calls fn at least once, and again while another call, taking as
// long as the last one, still ends within the run's --seconds budget
// counted from start.
func (b *bench) cycles(start time.Time, fn func() error) error {
	budget := time.Duration(b.seconds * float64(time.Second))
	for {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

// subSeed is the campaign seed of a run's instance j. Instance 0 uses the
// run's seed itself.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// perInstance aggregates per-instance timings: the median over an
// instance's cycles, averaged over the instances.
func perInstance(times [][]float64) float64 {
	sum := 0.0
	for _, t := range times {
		sum += median(t)
	}
	return sum / float64(len(times))
}
