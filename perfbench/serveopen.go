package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

const (
	// serveRate is the fixed offered rate of serve-open, in requests per
	// second: about a third of what rpserved sustained on a 2-core
	// machine with this traffic mix. At 60% the latency quantiles varied
	// by more than 20% between seeds, and at 50% by up to 30%, because a
	// slower stretch of the shared machine turned into queueing; at 20
	// requests/s the p50 varied by 19% because it rests on too few
	// distinct series.
	serveRate = 30
	// batchShare, batchSize, repeatShare and recentWindow shape the
	// serve-open traffic: 5% batches of 8 series, and 25% of series
	// repeat one of the last 64 distinct series sent. At 10% batches
	// the p90 would sit on the boundary between single and batch
	// latencies and swing with their mix.
	batchShare   = 0.05
	batchSize    = 8
	repeatShare  = 0.25
	recentWindow = 64
	// traceReplaySeries bounds how many distinct series a traced service
	// run replays through the pipeline layers.
	traceReplaySeries = 300
	// traceFetchMax bounds how many span trees a traced run reads.
	traceFetchMax = 4000
)

// serveReq is one scheduled serve-open request: a single detect
// (len(idx) == 1) or a batch.
type serveReq struct {
	due  time.Duration
	idx  []int
	body []byte
}

// serveInputs is the seeded serve-open traffic.
type serveInputs struct {
	series []labeled
	reqs   []serveReq
	want   [][]int
}

func genServeOpen(seed int64, total time.Duration) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	gen := newShortGen(rng, 128, 1024)
	batch, repeat := newDeck(rng, int(1/batchShare)), newDeck(rng, int(1/repeatShare))
	var in serveInputs
	pick := func() int {
		if len(in.series) > 0 && repeat.next() == 0 {
			lo := len(in.series) - recentWindow
			if lo < 0 {
				lo = 0
			}
			return lo + rng.Intn(len(in.series)-lo)
		}
		in.series = append(in.series, gen.next())
		return len(in.series) - 1
	}
	for _, t := range arrivals(rng, serveRate, total) {
		n := 1
		if batch.next() == 0 {
			n = batchSize
		}
		r := serveReq{due: t}
		for i := 0; i < n; i++ {
			r.idx = append(r.idx, pick())
		}
		in.reqs = append(in.reqs, r)
	}
	return in
}

// arrivals returns the sorted arrival times of a Poisson process of the
// given rate over [0, total), conditioned on its expected count: that
// many uniform times, so every seed offers the same number of
// operations.
func arrivals(rng *rand.Rand, rate float64, total time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*total.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(total)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// schedule returns the digest words of the request schedule.
func (in serveInputs) schedule() []int64 {
	var out []int64
	for _, r := range in.reqs {
		out = append(out, int64(r.due), int64(len(r.idx)))
		for _, i := range r.idx {
			out = append(out, int64(i))
		}
	}
	return out
}

// encode builds every request body once, before the run.
func (in *serveInputs) encode() {
	single := make(map[int][]byte)
	for i := range in.reqs {
		r := &in.reqs[i]
		if len(r.idx) == 1 {
			b, ok := single[r.idx[0]]
			if !ok {
				b = detectBody(in.series[r.idx[0]].X)
				single[r.idx[0]] = b
			}
			r.body = b
			continue
		}
		xs := make([][]float64, len(r.idx))
		for j, k := range r.idx {
			xs[j] = in.series[k].X
		}
		r.body, _ = json.Marshal(struct {
			Series [][]float64 `json:"series"`
		}{xs})
	}
}

func runServeOpen(cfg config, res *result) error {
	window := time.Duration(cfg.seconds) * time.Second
	in := genServeOpen(cfg.seed, warmUp+window)
	res.InputDigest = inputDigest(in.series, in.schedule())
	res.Samples["distinct_series"] = len(in.series)
	res.Samples["scheduled_requests"] = len(in.reqs)
	want, err := expected(in.series)
	if err != nil {
		return err
	}
	in.want = want
	in.encode()
	dir, err := serverDir(cfg)
	if err != nil {
		return err
	}

	if !cfg.trace {
		setup, err := serverSetup(cfg.serverBin, dir, func(int) []string { return nil }, firstDetect)
		if err != nil {
			return err
		}
		res.set("setup_s", setup.Seconds())
		p, _, err := servePhase(cfg, res, &in, dir, false)
		if err != nil {
			return err
		}
		p.lagP99(res)
		return nil
	}

	// Traced run: the same traffic against an untraced and a fully
	// traced server, then the pipeline layers on the distinct series.
	plain, plainEnd, err := servePhase(cfg, res, &in, dir, false)
	if err != nil {
		return err
	}
	plainP50 := res.Metrics["latency_ms_p50"].Value
	traced, _, err := servePhase(cfg, res, &in, dir, true)
	if err != nil {
		return err
	}
	tracedP50 := res.Metrics["latency_ms_p50"].Value
	res.dropEndToEnd()
	if err := serviceLayers(res, plain, plainEnd, traced, in.series); err != nil {
		return err
	}
	res.set("trace.overhead_frac", tracedP50/plainP50-1)
	for _, name := range []string{"jobs.queue_wait_ms_p99", "jobs.polls_per_job", "jobs.submit_ms_p50", "jobs.submit_ms_p99", "wal.bytes_per_job"} {
		res.set(name, 0) // no async jobs and no WAL on this workload
	}
	d := func(name string) float64 { return plainEnd.end.sum(name) - plainEnd.atWarm.sum(name) }
	res.Claims["no_wal_activity"] = d("rp_wal_appends_total") == 0 && d("rp_wal_fsyncs_total") == 0 &&
		res.Samples["wal_append_spans"] == 0 && res.Metrics["wal.append_ms"].Value == 0 &&
		res.Metrics["wal.fsync_ms"].Value == 0 && res.Metrics["wal.share_of_submit"].Value == 0
	return nil
}

// firstDetect is the serve-open set-up probe request.
func firstDetect(c *http.Client, base string) error {
	resp, _, err := do(context.Background(), c, "POST", base+"/v1/detect", detectBody(probeSeries(64)), nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe detect: %s", resp.Status)
	}
	return nil
}

// phaseEnd is what a finished phase leaves for the traced report.
type phaseEnd struct {
	atWarm, end promSample
	memBefore   map[string]float64
	memAfter    map[string]float64
	ops         int
	walBytes    float64 // appended to the WAL over the measured window
}

// servePhase launches one rpserved at its defaults (traced: every
// request sampled) and runs the serve-open schedule against it.
func servePhase(cfg config, res *result, in *serveInputs, dir string, traced bool) (*phase, phaseEnd, error) {
	var flags []string
	if traced {
		flags = []string{"-trace-sample", "1", "-trace-store", fmt.Sprint(traceFetchMax * 2)}
	}
	start := time.Now()
	srv, err := startServer(cfg.serverBin, dir, cfg.trace, flags...)
	if err != nil {
		return nil, phaseEnd{}, err
	}
	defer srv.stop()
	probe := &http.Client{Timeout: 5 * time.Second}
	if _, err := srv.waitReady(start, func() error { return firstDetect(probe, srv.base) }); err != nil {
		return nil, phaseEnd{}, err
	}

	p := newPhase(srv, res, cfg)
	for s := warmUp; s < warmUp+p.window; s += time.Second {
		p.addScrape(s)
	}
	for i := range in.reqs {
		r := &in.reqs[i]
		p.sched.add(r.due, func(a *action, sent time.Time) { p.serveOne(in, r, a, sent, traced) })
	}
	end, err := p.run(probe)
	if err != nil {
		return nil, phaseEnd{}, err
	}
	if err := p.setOpenLoop(res); err != nil {
		return nil, phaseEnd{}, err
	}
	// period_f1 scores the server's answers for the series sent before
	// the window's nominal end, which every run sends whatever its
	// extension, so it is the same for every run of a seed.
	var score f1
	seen := map[int]bool{}
	for _, r := range in.reqs {
		if r.due >= warmUp+p.window {
			break
		}
		for _, k := range r.idx {
			if !seen[k] {
				seen[k] = true
				score.add(in.series[k].Truth, p.answers[k])
			}
		}
	}
	res.set("period_f1", score.value())
	ops, _ := p.measuredOps()
	pe := phaseEnd{atWarm: p.atWarm, end: end, memBefore: p.memAtWarm, ops: len(ops)}
	if srv.debugBase != "" {
		if pe.memAfter, err = memStats(probe, srv.debugBase); err != nil {
			return nil, phaseEnd{}, err
		}
	}
	if traced {
		ids := append([]string(nil), p.traceIDs...)
		traces, err := fetchTraces(probe, srv.debugBase, ids, traceFetchMax)
		if err != nil {
			return nil, phaseEnd{}, err
		}
		res.Samples["traces_fetched"] = len(traces)
		collectSpans(traces).report(res)
	}
	return p, pe, nil
}

// detectResp is the part of a /v1/detect and /v1/detect/batch answer
// the benchmark checks.
type detectResp struct {
	Periods []int `json:"periods"`
	Cached  bool  `json:"cached"`
	Results []struct {
		Periods []int `json:"periods"`
		Error   *struct {
			Code string `json:"code"`
		} `json:"error"`
	} `json:"results"`
}

// serveOne sends one scheduled request and checks its answer against
// the library's.
func (p *phase) serveOne(in *serveInputs, r *serveReq, a *action, sent time.Time, traced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	p.attempt()
	path := "/v1/detect"
	if len(r.idx) > 1 {
		path = "/v1/detect/batch"
	}
	resp, body, err := do(ctx, p.client, "POST", p.srv.base+path, r.body, nil)
	done := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		p.fail("POST %s: %v %s", path, err, statusOf(resp))
		return
	}
	var dr detectResp
	if err := json.Unmarshal(body, &dr); err != nil {
		p.fail("POST %s: bad body: %v", path, err)
		return
	}
	points := 0
	if len(r.idx) == 1 {
		k := r.idx[0]
		if !samePeriods(dr.Periods, in.want[k]) {
			p.fail("series %d: server %v, library %v", k, dr.Periods, in.want[k])
			return
		}
		p.answer(k, dr.Periods)
		points = len(in.series[k].X)
	} else {
		if len(dr.Results) != len(r.idx) {
			p.fail("batch: %d results for %d series", len(dr.Results), len(r.idx))
			return
		}
		for j, k := range r.idx {
			it := dr.Results[j]
			if it.Error != nil || !samePeriods(it.Periods, in.want[k]) {
				p.fail("batch series %d: server %v (error %v), library %v", k, it.Periods, it.Error, in.want[k])
				return
			}
			p.answer(k, it.Periods)
			points += len(in.series[k].X)
		}
	}
	if !p.measured(a) {
		return
	}
	tid := ""
	if traced {
		tid = traceID(resp.Header)
	}
	p.record(opRecord{
		due:     a.due,
		latency: done.Sub(p.sched.dueTime(a)),
		submit:  done.Sub(sent),
		points:  points,
		done:    done.Sub(p.sched.start),
	}, tid)
}

// serviceLayers sets the per-layer metrics of a traced service run:
// counters and runtime from the untraced phase, the generator's lag and
// the scrape cost from it too, and the pipeline layers from an
// in-process replay of the first distinct series.
func serviceLayers(res *result, plain *phase, pe phaseEnd, traced *phase, series []labeled) error {
	d := func(name string) float64 { return pe.end.sum(name) - pe.atWarm.sum(name) }
	hits, misses := d("rp_cache_hits_total"), d("rp_cache_misses_total")
	res.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("serve.shed", d("rp_requests_shed_total"))
	res.set("serve.degraded", d("rp_degraded_total"))
	submitted := d("rp_jobs_submitted_total")
	res.set("jobs.coalesce_ratio", ratio(d("rp_jobs_coalesced_total"), submitted))
	res.set("wal.fsyncs_per_submit", ratio(d("rp_wal_fsyncs_total"), submitted))
	setRuntimeFromServer(res, pe.memBefore, pe.memAfter, pe.ops)
	res.set("obs.scrape_ms", plain.scrapeTimes.ms(0.5))
	res.set("obs.scrape_bytes", quantile(plain.scrapeBytes, 0.5))
	res.set("loadgen.lag_ms_p99", plain.lagP99(res))
	traced.lagP99(res)

	if len(series) > traceReplaySeries {
		series = series[:traceReplaySeries]
	}
	lt, err := replayLayers(series, res)
	if err != nil {
		return err
	}
	lt.report(res, false)
	return nil
}
