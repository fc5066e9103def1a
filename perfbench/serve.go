package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/core"
	"dragonvar/internal/dataset"
	"dragonvar/internal/gbr"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/serve"
	"dragonvar/internal/telemetry"
)

// The serve workload's load: an open loop over conns keep-alive
// connections (no more than the benchmark's 2 procs) at the nominal rate,
// a share of requests (serveParams.hotShare) repeating one of hot windows,
// a per-request timeout, and the p99 limit of the max-rate search. The
// nominal rate and the hot-set size are the repository's own serving
// traffic: dfserved -loadgen's default -rps and -pool, which
// BENCH_serve.json records at 500 rps.
const (
	conns      = 2
	nominalRPS = 500.0
	hot        = 64
	timeout    = 2 * time.Second
	p99Limit   = 10 * time.Millisecond
)

// serveParams sizes the serve workload's phases.
type serveParams struct {
	nominalN int     // fewest requests timed at the nominal rate
	warmN    int     // untimed requests before the timed window
	probeN   int     // requests per max-rate probe
	hotShare float64 // share of requests that repeat a hot window
	// The max-rate ladder: rung k is nominalRPS·step^k, for k from
	// -stepsDown to stepsUp.
	step               float64
	stepsDown, stepsUp int
}

func defaultServeParams() serveParams {
	// 5% steps, finer than throughput_per_s's bound, from ~128 to ~3,000 rps
	return serveParams{nominalN: 1000, warmN: 300, probeN: 1000, hotShare: 0.2,
		step: 1.05, stepsDown: 28, stepsUp: 37}
}

// rung is the rate k steps above (below, for negative k) the nominal rate.
func (sp serveParams) rung(k int) float64 {
	return math.Round(nominalRPS * math.Pow(sp.step, float64(k)))
}

// provisioned is a trained, stored and started forecast server.
type provisioned struct {
	forecaster *nn.Forecaster // as trained, before the store round trip
	m, h       int            // window shape
	srv        *serve.Server
	hs         *http.Server
	served     chan error // the HTTP server's exit
	url        string
	client     *http.Client
	setupS     float64
	camp       *dataset.Campaign // the training campaign
	digest     string            // and its digest
	probe      string            // forecastProbe of the trained forecaster
	closeOnce  sync.Once
	closeErr   error

	campaignS, nnTrainS, gbrFitS, advisorS, putS, getS, startS float64
}

// servingDataset is the dataset the served models are trained on: the
// first non-empty one.
func servingDataset(camp *dataset.Campaign) (*dataset.Dataset, error) {
	for _, ds := range camp.Datasets {
		if len(ds.Runs) > 0 {
			return ds, nil
		}
	}
	return nil, errors.New("campaign has no runs to train on")
}

// provision is the serve workload's set-up: generate the campaign, train
// the forecaster, the deviation model and the advisor, store and reload
// them through a modelstore in dir, and start the server on loopback until
// /readyz answers.
func provision(ctx context.Context, b *bench, dir string, seed int64) (*provisioned, error) {
	p := &provisioned{}
	t0 := time.Now()
	ctx, span := telemetry.Start(ctx, "serve.provision")
	defer span.End()

	g, err := generate(ctx, campaignConfig(seed, b.p.days, 2))
	if err != nil {
		return nil, err
	}
	b.checkCampaign(g, g.digest)
	p.campaignS, p.camp, p.digest = g.newS+g.runS, g.camp, g.digest
	ds, err := servingDataset(g.camp)
	if err != nil {
		return nil, err
	}
	var gm *gbr.Model
	var adv *advisor.Advisor
	p.nnTrainS, err = timed(ctx, "core.TrainServingForecaster", func(context.Context) (err error) {
		p.forecaster, _, err = core.TrainServingForecaster(ds, forecastSpec, core.ForecastOptions{}, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.gbrFitS, err = timed(ctx, "core.TrainServingDeviation", func(context.Context) (err error) {
		gm, _, err = core.TrainServingDeviation(ds, core.DeviationOptions{MaxSamples: deviationOpts.MaxSamples}, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.advisorS, _ = timed(ctx, "advisor.Train", func(context.Context) error {
		adv = advisor.Train(g.camp, advisor.Options{})
		return nil
	})

	st, err := modelstore.Open(dir)
	if err != nil {
		return nil, err
	}
	fMeta := modelstore.Meta{Dataset: ds.Name, Seed: seed, Spec: forecastSpec.String(),
		M: forecastSpec.M, K: forecastSpec.K, FeatureNames: forecastSpec.Features.Names()}
	gMeta := modelstore.Meta{Dataset: ds.Name, Seed: seed, FeatureNames: core.DeviationFeatureNames()}
	p.putS, err = timed(ctx, "modelstore.Put", func(context.Context) error {
		if _, err := st.PutForecaster("forecast", fMeta, p.forecaster); err != nil {
			return err
		}
		if _, err := st.PutGBR("deviation", gMeta, gm); err != nil {
			return err
		}
		_, err := st.PutAdvisor("advisor", modelstore.Meta{Seed: seed}, adv)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{}
	p.getS, err = timed(ctx, "modelstore.Get", func(context.Context) (err error) {
		if cfg.Forecaster, cfg.ForecastMeta, err = st.GetForecaster("forecast"); err != nil {
			return err
		}
		if cfg.GBR, cfg.GBRMeta, err = st.GetGBR("deviation"); err != nil {
			return err
		}
		if cfg.Adv, _, err = st.GetAdvisor("advisor"); err != nil {
			return err
		}
		if cfg.ForecastID, _, err = st.Resolve("forecast"); err != nil {
			return err
		}
		cfg.GBRID, _, err = st.Resolve("deviation")
		return err
	})
	if err != nil {
		return nil, err
	}
	p.m, p.h = p.forecaster.WindowShape()
	p.probe = forecastProbe(p.forecaster, seed, b.p.serve)
	b.checkProbe(p.probe, seed)
	p.startS, err = timed(ctx, "serve.start", func(context.Context) error { return p.start(cfg) })
	if err != nil {
		return nil, err
	}
	p.setupS = time.Since(t0).Seconds()
	return p, nil
}

// start runs serve.New behind an HTTP server on a free loopback port and
// waits until /readyz answers 200.
func (p *provisioned) start(cfg serve.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.srv = serve.New(cfg)
	p.hs = &http.Server{Handler: p.srv.Handler()}
	p.served = make(chan error, 1)
	go func() { p.served <- p.hs.Serve(ln) }()
	p.url = "http://" + ln.Addr().String()
	p.client = &http.Client{Timeout: timeout, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := p.client.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			p.close()
			return fmt.Errorf("server not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the server, shuts the listener down, and waits for it.
// Later calls return the first call's error.
func (p *provisioned) close() error {
	p.closeOnce.Do(func() {
		p.srv.Drain()
		// every request has been answered: closing the client's idle
		// connections first leaves Shutdown none to wait for (it waits 5s
		// for a connection that never carried a request)
		p.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if p.closeErr = p.hs.Shutdown(ctx); errors.Is(p.closeErr, context.DeadlineExceeded) {
			p.closeErr = p.hs.Close() // nothing is in flight after Drain
		}
		if err := <-p.served; !errors.Is(err, http.ErrServerClosed) && p.closeErr == nil {
			p.closeErr = err
		}
	})
	return p.closeErr
}

// forecastProbe digests the forecaster's predictions on 16 windows drawn
// from the seed, bit for bit: equal probes mean the same trained model.
func forecastProbe(f *nn.Forecaster, seed int64, sp serveParams) string {
	m, h := f.WindowShape()
	ws := makeWindows(seed, 0, 16, m, h, sp)
	samples := make([]nn.Sample, len(ws.pick))
	for i, w := range ws.pick {
		samples[i] = nn.Sample{Steps: ws.windows[w]}
	}
	hash := sha256.New()
	for _, v := range f.PredictAll(samples) {
		binary.Write(hash, binary.LittleEndian, math.Float64bits(v)) // hash writes never fail
	}
	return hex.EncodeToString(hash.Sum(nil)[:8])
}

// checkProbe is the trained-model gate: the forecaster's probe is the one
// recorded for the seed.
func (b *bench) checkProbe(probe string, seed int64) {
	if ref := b.ref(seed); ref != nil && ref.ServeProbe != "" {
		b.check(probe == ref.ServeProbe, "seed %d forecaster probe %s, recorded %s", seed, probe, ref.ServeProbe)
	}
}

// windowSet is a phase's request inputs: the windows and their payloads,
// plus which window each request sends.
type windowSet struct {
	windows  [][][]float64
	payloads [][]byte
	pick     []int // request i sends windows[pick[i]]
}

// makeWindows draws n requests' windows from the seed: a hotShare of them
// repeat one of the hot windows (shared by every phase of a run, so the
// prediction cache serves them), the rest are fresh. label separates the
// phases' fresh windows.
func makeWindows(seed int64, label int64, n, m, h int, sp serveParams) windowSet {
	draw := func(r *rand.Rand) [][]float64 {
		w := make([][]float64, m)
		for i := range w {
			w[i] = make([]float64, h)
			for j := range w[i] {
				w[i][j] = r.Float64() * 4
			}
		}
		return w
	}
	hotRand := rand.New(rand.NewSource(seed))
	var ws windowSet
	for i := 0; i < hot; i++ {
		ws.windows = append(ws.windows, draw(hotRand))
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + label))
	for i := 0; i < n; i++ {
		if r.Float64() < sp.hotShare {
			ws.pick = append(ws.pick, r.Intn(hot))
			continue
		}
		ws.pick = append(ws.pick, len(ws.windows))
		ws.windows = append(ws.windows, draw(r))
	}
	for _, w := range ws.windows {
		blob, _ := json.Marshal(map[string]any{"window": w}) // finite floats always encode
		ws.payloads = append(ws.payloads, blob)
	}
	return ws
}

// outcome is one request of an open-loop phase.
type outcome struct {
	sent    bool
	err     error
	status  int
	pred    float64
	cached  bool
	latency time.Duration // response time minus due time
	late    time.Duration // send time minus the later of due time and connection free
	end     time.Duration // response time minus the phase's start
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status == http.StatusOK }

// drive sends ws's requests open loop at rate over conns keep-alive
// connections: request i is due i/rate after the start, each connection
// sends the next request in order once it is due, and latency counts from
// the due time, so waiting for a busy connection is part of it. A request
// not sent within 5s of the schedule's end is never sent.
func drive(ctx context.Context, p *provisioned, ws windowSet, rate float64) []outcome {
	ctx, span := telemetry.Start(ctx, "loadgen.drive")
	span.SetAttr("rate", fmt.Sprint(rate))
	defer span.End()
	n := len(ws.pick)
	out := make([]outcome, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	deadline := start.Add(time.Duration(n)*interval + 5*time.Second)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := &out[i]
				sendAt := time.Now()
				if sendAt.After(deadline) {
					continue // never sent
				}
				if due.After(free) {
					free = due
				}
				o.sent, o.late = true, sendAt.Sub(free)
				o.status, o.pred, o.cached, o.err = post(ctx, p, ws.payloads[ws.pick[i]])
				free = time.Now()
				o.latency, o.end = free.Sub(due), free.Sub(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// post sends one forecast request and decodes the answer.
func post(ctx context.Context, p *provisioned, payload []byte) (status int, pred float64, cached bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/forecast", bytes.NewReader(payload))
	if err != nil {
		return 0, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, 0, false, err
	}
	defer resp.Body.Close()
	var fr struct {
		Prediction float64 `json:"prediction"`
		Cached     bool    `json:"cached"`
	}
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&fr)
	}
	return resp.StatusCode, fr.Prediction, fr.Cached, err
}

// phaseStats summarises a phase. A failed request counts as missing every
// latency limit.
type phaseStats struct {
	n, failed, cached int
	p50, p99, lateP99 time.Duration
	tail              time.Duration // median latency of the last tenth
	rate              float64       // answered requests per second of the phase
}

func summarize(out []outcome) phaseStats {
	s := phaseStats{n: len(out)}
	lat := make([]float64, len(out))
	var late []float64
	var end time.Duration
	for i := range out {
		o := &out[i]
		lat[i] = math.Inf(1)
		if o.ok() {
			lat[i] = o.latency.Seconds()
			end = max(end, o.end)
			if o.cached {
				s.cached++
			}
		} else {
			s.failed++
		}
		if o.sent {
			late = append(late, o.late.Seconds())
		}
	}
	if end > 0 {
		s.rate = float64(s.n-s.failed) / end.Seconds()
	}
	s.tail = duration(median(lat[len(lat)-max(1, len(lat)/10):]))
	s.p50, s.p99 = duration(quantile(lat, 0.5)), duration(quantile(lat, 0.99))
	s.lateP99 = duration(quantile(late, 0.99))
	return s
}

// duration converts seconds, saturating (a failed request's infinite
// latency becomes the largest duration).
func duration(sec float64) time.Duration {
	if math.IsNaN(sec) || sec > math.MaxInt64/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// checkServed is the serving gate: every answered forecast equals a direct
// PredictAll of the trained forecaster on the same window, bit for bit.
// It counts the phase's requests and failures.
func (b *bench) checkServed(p *provisioned, ws windowSet, out []outcome) {
	samples := make([]nn.Sample, len(ws.windows))
	for i, w := range ws.windows {
		samples[i] = nn.Sample{Steps: w}
	}
	direct := p.forecaster.PredictAll(samples)
	failed, wrong := 0, 0
	for i := range out {
		o := &out[i]
		if !o.ok() {
			failed++
			continue
		}
		if math.Float64bits(o.pred) != math.Float64bits(direct[ws.pick[i]]) {
			wrong++
		}
	}
	b.count(len(out), failed)
	b.check(wrong == 0, "%d of %d served forecasts differ from a direct PredictAll", wrong, len(out))
}

// passes reports whether a phase meets the max-rate criteria: nothing
// failed, p99 latency within the limit, and no growing backlog (the last
// tenth's median latency within the limit too).
func (s phaseStats) passes(limit time.Duration) bool {
	return s.failed == 0 && s.p99 <= limit && s.tail <= limit
}

// maxRate searches the ladder for the highest rate that passes, assuming
// that a rate passing implies every lower one does. When the nominal phase
// passes, only the rungs above it are probed, and its achieved rate is
// reported if none of them passes; this bounds the search's time. When it
// fails, the rungs below it are searched instead, and 0 is reported if
// none passes, so that a miss at the nominal rate never reads as a pass. A
// rate fails only when two probes in a row fail, so one stall of the host
// cannot cut the search short. Every probe's forecasts go through the
// serving gate.
func (b *bench) maxRate(ctx context.Context, p *provisioned, sp serveParams, nominal phaseStats) float64 {
	lo, hi, best := 0, sp.stepsUp+1, nominal.rate // highest known pass, lowest known failure
	if !nominal.passes(p99Limit) {
		fmt.Fprintf(os.Stderr, "serve: the nominal rate misses p99 <= %v; searching below it\n", p99Limit)
		lo, hi, best = -sp.stepsDown-1, 0, 0
	}
	probe := int64(1000)
	passes := func(rate float64) (phaseStats, bool) {
		var s phaseStats
		for try := 0; try < 2; try++ {
			probe++
			ws := makeWindows(b.seed, probe, sp.probeN, p.m, p.h, sp)
			out := drive(ctx, p, ws, rate)
			b.checkServed(p, ws, out)
			s = summarize(out)
			fmt.Fprintf(os.Stderr, "serve: probe %6.0f rps: achieved %.1f, p50 %v p99 %v tail %v failed %d\n",
				rate, s.rate, s.p50, s.p99, s.tail, s.failed)
			if s.passes(p99Limit) {
				return s, true
			}
		}
		return s, false
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if s, ok := passes(sp.rung(mid)); ok {
			lo, best = mid, s.rate
		} else {
			hi = mid
		}
	}
	return best
}

// nominal warms the server, then drives the timed window at the nominal
// rate; both go through the serving gate.
func (b *bench) nominal(ctx context.Context, p *provisioned, sp serveParams) phaseStats {
	warm := makeWindows(b.seed, 1, sp.warmN, p.m, p.h, sp)
	b.checkServed(p, warm, drive(ctx, p, warm, nominalRPS))
	// a quarter of the run's seconds, and at least enough requests for a
	// p99 with ten samples beyond it
	n := max(sp.nominalN, int(nominalRPS*b.seconds/4))
	ws := makeWindows(b.seed, 2, n, p.m, p.h, sp)
	out := drive(ctx, p, ws, nominalRPS)
	b.checkServed(p, ws, out)
	return summarize(out)
}

// measureServe is the serve workload: per instance, provisioning up to a
// ready server is the set-up; the last instance's server is driven, and
// one forecast request at the nominal rate is the unit of work.
func measureServe(ctx context.Context, b *bench) error {
	var setup []float64
	var p *provisioned
	for j := 0; j < b.p.servers; j++ {
		if p != nil {
			if err := p.close(); err != nil {
				return err
			}
		}
		var err error
		if p, err = provision(ctx, b, fmt.Sprintf("%s/store%d", b.dir, j), subSeed(b.seed, j)); err != nil {
			return err
		}
		setup = append(setup, p.setupS)
	}
	defer p.close()
	sp := b.p.serve
	s := b.nominal(ctx, p, sp)
	maxRPS := b.maxRate(ctx, p, sp, s)
	fmt.Fprintf(os.Stderr, "serve: nominal %g rps: p50 %v p99 %v (n=%d, %d cached) late p99 %v; max rate %g rps\n",
		nominalRPS, s.p50, s.p99, s.n, s.cached, s.lateP99, maxRPS)
	b.set(mSetup, "s", median(setup))
	b.set(mWork, "s", s.p50.Seconds())
	b.set(mThroughput, "1/s", maxRPS)
	return p.close()
}

func onceServe(ctx context.Context, b *bench) error {
	dir, err := os.MkdirTemp(b.dir, "store")
	if err != nil {
		return err
	}
	p, err := provision(ctx, b, dir, b.seed)
	if err != nil {
		return err
	}
	defer p.close()
	ws := makeWindows(b.seed, 3, b.p.handlerN, p.m, p.h, b.p.serve)
	b.checkServed(p, ws, drive(ctx, p, ws, nominalRPS))
	return p.close()
}
