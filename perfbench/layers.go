package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/netsim"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/slurm"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// traceLayers is the traced run. It times every layer through its public
// functions on the workload's campaign configuration (the same on every
// workload), in spans under one root, and then times the workload's own
// set-up plus one unit of work with and without tracing for the overhead.
// Each parent layer also reports what its timed children leave
// unattributed.
func traceLayers(ctx context.Context, b *bench, name string, w workload) error {
	ctx, root := telemetry.Start(ctx, "perfbench/"+name)
	defer root.End()
	cfg := campaignConfig(b.seed, b.p.days, 2)
	steps := []func(context.Context, *bench, cluster.Config) error{
		setupLayers, campaignLayers, roundLayers, analysisAndServingLayers,
	}
	for _, step := range steps {
		if err := step(ctx, b, cfg); err != nil {
			return err
		}
	}
	return overhead(ctx, b, w)
}

// setupLayers times what cluster.New does, part by part: the topology and
// the background timeline, on a fresh network built with the same config.
func setupLayers(ctx context.Context, b *bench, cfg cluster.Config) error {
	// An untimed build first, so that process-wide lazy set-up is paid
	// before the parent and its children are timed, and a collection before
	// each timed call, so that none pays for another's garbage.
	if _, err := cluster.New(cfg); err != nil {
		return err
	}
	res := cfg.Resolved()
	var topo *topology.Dragonfly
	runtime.GC()
	topoS, err := timed(ctx, "topology.New", func(context.Context) (err error) {
		topo, err = topology.New(res.Machine)
		return err
	})
	if err != nil {
		return err
	}
	s := rng.New(res.Seed)
	net := netsim.New(topo, res.Net, s.Split("netsim"))
	net.SharePathCache(netsim.NewPathCache())
	var tl *slurm.Timeline
	runtime.GC()
	genS, _ := timed(ctx, "slurm.Generate", func(context.Context) error {
		tl = slurm.Generate(net, slurm.GenerateConfig{Days: res.Days, Users: res.Users, Workers: res.Workers},
			s.Split("timeline"))
		return nil
	})
	var c *cluster.Cluster
	runtime.GC()
	newS, err := timed(ctx, "cluster.New", func(context.Context) (err error) {
		c, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return err
	}
	b.check(len(c.Timeline.Jobs) == len(tl.Jobs), "cluster.New built %d background jobs, slurm.Generate %d",
		len(c.Timeline.Jobs), len(tl.Jobs))
	b.set("topology.new_s", "s", topoS)
	b.set("slurm.generate_s", "s", genS)
	b.set("slurm.jobs", "count", float64(len(tl.Jobs)))
	b.set("cluster.new_s", "s", newS)
	b.set("cluster.new.unattributed_s", "s", newS-topoS-genS)
	return nil
}

// campaignLayers splits a campaign into the schedule pass (PlanInfo) and
// per-unit simulation (NewUnitSim plus Simulate on every unit), then runs
// it whole serially and with 2 workers, and times the dataset layer on the
// result.
func campaignLayers(ctx context.Context, b *bench, cfg cluster.Config) error {
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	var units int
	var plan string
	scheduleS, err := timed(ctx, "cluster.PlanInfo", func(context.Context) (err error) {
		units, plan, err = c.PlanInfo()
		return err
	})
	if err != nil {
		return err
	}
	var u *cluster.UnitSim
	if _, err := timed(ctx, "cluster.NewUnitSim", func(context.Context) (err error) {
		u, err = cluster.NewUnitSim(cfg)
		return err
	}); err != nil {
		return err
	}
	b.check(u.PlanDigest() == plan, "NewUnitSim plan %s, PlanInfo plan %s", u.PlanDigest(), plan)
	var unitS []float64
	simulateS, err := timed(ctx, "simulate", func(ctx context.Context) error {
		for i := 0; i < u.NumUnits(); i++ {
			d, err := timed(ctx, "cluster.UnitSim.Simulate", func(context.Context) error {
				o, err := u.Simulate(i)
				if err == nil && (o.Drained || o.Run == nil) {
					err = fmt.Errorf("unit %d did not complete", i)
				}
				return err
			})
			if err != nil {
				return err
			}
			unitS = append(unitS, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.count(units, 0)

	serial, err := generate(ctx, campaignConfig(b.seed, b.p.days, 1))
	if err != nil {
		return err
	}
	par, err := generate(ctx, cfg)
	if err != nil {
		return err
	}
	b.check(serial.digest == par.digest, "serial campaign %s, 2-worker campaign %s", serial.digest, par.digest)
	b.checkCampaign(serial, par.digest)
	b.checkCampaign(par, par.digest)
	b.check(par.units == units, "campaign ran %d units, PlanInfo scheduled %d", par.units, units)

	path := filepath.Join(b.dir, "campaign.gob")
	saveS, err := timed(ctx, "dataset.Campaign.Save", func(context.Context) error { return par.camp.Save(path) })
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var loaded *dataset.Campaign
	loadS, err := timed(ctx, "dataset.Load", func(context.Context) (err error) {
		loaded, err = dataset.Load(path)
		return err
	})
	if err != nil {
		return err
	}
	digest, err := campaignDigest(loaded)
	if err != nil {
		return err
	}
	b.check(digest == par.digest, "campaign digest %s after Save and Load, %s before", digest, par.digest)

	b.set("cluster.schedule_s", "s", scheduleS)
	b.set("cluster.units", "count", float64(units))
	b.set("cluster.simulate_s", "s", simulateS)
	b.set("cluster.unit_p50_ms", "ms", 1e3*median(unitS))
	b.set("cluster.unit_max_ms", "ms", 1e3*quantile(unitS, 1))
	b.set("cluster.run_campaign_serial_s", "s", serial.campaignS)
	b.set("cluster.run_campaign_s", "s", par.campaignS)
	b.set("cluster.run_campaign.unattributed_s", "s", serial.campaignS-scheduleS-simulateS)
	b.set("engine.speedup", "ratio", serial.campaignS/par.campaignS)
	b.set("dataset.digest_s", "s", par.digestS)
	b.set("dataset.save_s", "s", saveS)
	b.set("dataset.load_s", "s", loadS)
	b.set("dataset.bytes", "B", float64(st.Size()))
	return nil
}

// roundLayers times the netsim round loop and path resolution on a fixed
// 256-flow shape: 8 source groups of 32 flows, each to a group three over.
func roundLayers(ctx context.Context, b *bench, cfg cluster.Config) error {
	res := cfg.Resolved()
	d, err := topology.New(res.Machine)
	if err != nil {
		return err
	}
	n := netsim.New(d, res.Net, rng.New(1))
	n.ReuseSlowdowns(true)
	var flows []netsim.Flow
	for g := 0; g < 8; g++ {
		for c := 0; c < 32; c++ {
			flows = append(flows, netsim.Flow{
				Src:             d.RouterAt(topology.GroupID(g), c%4, c%6),
				Dst:             d.RouterAt(topology.GroupID((g+3)%9), (c+1)%4, (c+2)%6),
				Flits:           1e8,
				Packets:         1e4,
				RequestFraction: 0.8,
			})
		}
	}
	var resolve []float64
	var routed *netsim.RoutedFlows
	for i := 0; i < 20; i++ {
		t, _ := timed(ctx, "netsim.Network.Resolve", func(context.Context) error {
			routed = n.Resolve(flows)
			return nil
		})
		resolve = append(resolve, t)
	}
	for i := 0; i < 16; i++ { // warm the caches before timing
		n.RunRoundRouted(flows, routed, nil, 1.0)
	}
	roundsS, _ := timed(ctx, "netsim.Network.RunRoundRouted", func(context.Context) error {
		for i := 0; i < b.p.rounds; i++ {
			n.RunRoundRouted(flows, routed, nil, 1.0)
		}
		return nil
	})
	b.set("netsim.resolve_ms", "ms", 1e3*median(resolve))
	b.set("netsim.round_us", "us", 1e6*roundsS/float64(b.p.rounds))
	return nil
}

// analysisAndServingLayers times one analysis pass on the workload's
// campaign, then provisions a server and times prediction, the handler,
// the loopback round trip, and an open-loop phase at the nominal rate.
func analysisAndServingLayers(ctx context.Context, b *bench, cfg cluster.Config) error {
	p, err := provision(ctx, b, filepath.Join(b.dir, "layers-store"), b.seed)
	if err != nil {
		return err
	}
	defer p.close()
	a, err := analyze(ctx, p.camp, b.seed)
	if err != nil {
		return err
	}
	b.checkAnalysis(a, a.results, b.seed)
	samples, windows := 0, 0
	for _, r := range a.results {
		samples += r.Samples
		windows += r.Windows
	}
	b.set("core.analysis_s", "s", a.totalS)
	b.set("core.neighborhood_s", "s", a.neighborhoodS)
	b.set("core.deviation_s", "s", a.deviationS)
	b.set("core.deviation_samples", "count", float64(samples))
	b.set("core.forecast_s", "s", a.forecastS)
	b.set("core.forecast_windows", "count", float64(windows))
	b.set("core.analysis.unattributed_s", "s", a.totalS-a.neighborhoodS-a.deviationS-a.forecastS)

	b.set("nn.train_s", "s", p.nnTrainS)
	b.set("gbr.fit_s", "s", p.gbrFitS)
	b.set("advisor.train_s", "s", p.advisorS)
	b.set("modelstore.put_s", "s", p.putS)
	b.set("modelstore.get_s", "s", p.getS)
	b.set("serve.start_s", "s", p.startS)
	b.set("serve.setup_s", "s", p.setupS)
	b.set("serve.setup.unattributed_s", "s",
		p.setupS-p.campaignS-p.nnTrainS-p.gbrFitS-p.advisorS-p.putS-p.getS-p.startS)

	if err := predictLayers(ctx, b, p); err != nil {
		return err
	}
	if err := requestLayers(ctx, b, p); err != nil {
		return err
	}
	return p.close()
}

// predictLayers times nn.Forecaster.PredictAll per window at batch sizes 1
// and 64.
func predictLayers(ctx context.Context, b *bench, p *provisioned) error {
	sp := b.p.serve
	sp.hotShare = 0
	ws := makeWindows(b.seed, 4, 64, p.m, p.h, sp) // 64 fresh windows
	batch := make([]nn.Sample, len(ws.pick))
	for i, w := range ws.pick {
		batch[i] = nn.Sample{Steps: ws.windows[w]}
	}
	var one, all []float64
	for i := 0; i < b.p.handlerN; i++ {
		t, _ := timed(ctx, "nn.Forecaster.PredictAll", func(context.Context) error {
			p.forecaster.PredictAll(batch[i%len(batch) : i%len(batch)+1])
			return nil
		})
		one = append(one, t)
	}
	for i := 0; i < max(1, b.p.handlerN/20); i++ {
		t, _ := timed(ctx, "nn.Forecaster.PredictAll", func(context.Context) error {
			p.forecaster.PredictAll(batch)
			return nil
		})
		all = append(all, t/float64(len(batch)))
	}
	b.set("nn.predict_us.b1", "us", 1e6*median(one))
	b.set("nn.predict_us.b64", "us", 1e6*median(all))
	return nil
}

// requestLayers times single forecast requests through the in-process
// handler and over loopback, one at a time, then drives an open-loop phase
// at the nominal rate and reads the server's own batching and cache
// counters from /metrics.
func requestLayers(ctx context.Context, b *bench, p *provisioned) error {
	sp := b.p.serve
	sp.hotShare = 0 // fresh windows: every request reaches the model
	ws := makeWindows(b.seed, 5, 2*b.p.handlerN, p.m, p.h, sp)
	handler := p.srv.Handler()
	var handlerS, roundTrip []float64
	out := make([]outcome, len(ws.pick))
	for i := range ws.pick {
		o := &out[i]
		payload := ws.payloads[ws.pick[i]]
		if i < b.p.handlerN {
			req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			t, _ := timed(ctx, "serve.Server.Handler.ServeHTTP", func(context.Context) error {
				handler.ServeHTTP(rec, req)
				return nil
			})
			handlerS = append(handlerS, t)
			var fr struct {
				Prediction float64 `json:"prediction"`
			}
			o.sent, o.status = true, rec.Code
			o.err = json.Unmarshal(rec.Body.Bytes(), &fr)
			o.pred = fr.Prediction
			continue
		}
		t, _ := timed(ctx, "loadgen.post", func(ctx context.Context) error {
			o.status, o.pred, o.cached, o.err = post(ctx, p, payload)
			return nil
		})
		o.sent = true
		roundTrip = append(roundTrip, t)
	}
	b.checkServed(p, ws, out)
	b.set("serve.handler_ms", "ms", 1e3*median(handlerS))
	b.set("serve.http_ms", "ms", 1e3*(median(roundTrip)-median(handlerS)))

	before, err := scrape(ctx, p)
	if err != nil {
		return err
	}
	s := b.nominal(ctx, p, b.p.serve)
	after, err := scrape(ctx, p)
	if err != nil {
		return err
	}
	served := b.p.serve.warmN + s.n
	hits := after["serve_cache_hits"] - before["serve_cache_hits"]
	misses := after["serve_cache_misses"] - before["serve_cache_misses"]
	batches := after["serve_batches_total"] - before["serve_batches_total"]
	batched := after["serve_batch_size_count"] - before["serve_batch_size_count"]
	b.check(hits+misses == float64(served), "/metrics counted %g cache lookups for %d requests", hits+misses, served)
	b.set("serve.batches", "count", batches)
	b.set("serve.batch_size_mean", "count", (after["serve_batch_size_sum"]-before["serve_batch_size_sum"])/batched)
	b.set("serve.cache_hit_ratio", "ratio", hits/(hits+misses))
	b.set("serve.p50_ms", "ms", 1e3*s.p50.Seconds())
	b.set("serve.p99_ms", "ms", 1e3*s.p99.Seconds())
	b.set("loadgen.late_p99_ms", "ms", 1e3*s.lateP99.Seconds())
	fmt.Fprintf(os.Stderr, "serve: traced nominal phase: %d of %d timed requests cached, %g batches\n",
		s.cached, s.n, batches)
	return nil
}

// scrape reads the server's /metrics as name → value, for unlabelled
// samples.
func scrape(ctx context.Context, p *provisioned) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	values := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			values[name] = v
		}
	}
	return values, sc.Err()
}

// overhead times the workload's set-up plus one unit of work twice with
// tracing off and twice with it on, interleaved, and reports the traced
// median over the untraced one, minus one.
func overhead(ctx context.Context, b *bench, w workload) error {
	reg := telemetry.Active()
	var on, off []float64
	for i := 0; i < 2; i++ {
		telemetry.Disable()
		t0 := time.Now()
		err := w.once(context.Background(), b)
		off = append(off, time.Since(t0).Seconds())
		telemetry.Enable(reg)
		if err != nil {
			return err
		}
		t, err := timed(ctx, "traced-once", func(ctx context.Context) error { return w.once(ctx, b) })
		if err != nil {
			return err
		}
		on = append(on, t)
	}
	frac := median(on)/median(off) - 1
	if math.IsNaN(frac) {
		return fmt.Errorf("overhead: no timings")
	}
	b.set("trace.overhead_frac", "ratio", frac)
	return nil
}
