package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"robustperiod"
	"robustperiod/internal/registry"
)

const (
	// warmUp is the head of every open-loop schedule that is run and
	// checked but not measured: connections open, plan caches and the
	// result cache fill.
	warmUp = time.Second
	// voidLag voids a run whose generator ran this late at p99 outside
	// stolen time: the offered load was not the scheduled one.
	voidLag = 500 * time.Millisecond
	// opTimeout bounds one client operation.
	opTimeout = 30 * time.Second
)

// expected computes the library's answer for every series, on nproc
// goroutines, before any server starts.
func expected(series []labeled) ([][]int, error) {
	out := make([][]int, len(series))
	errs := make([]error, len(series))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(series); i += workers {
				p, err := robustperiod.Detect(series[i].X, nil)
				out[i], errs[i] = append([]int{}, p...), err
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("library answer for series %d: %w", i, err)
		}
	}
	return out, nil
}

// detectBody encodes a /v1/detect or /v1/jobs request body.
func detectBody(x []float64) []byte {
	b, _ := json.Marshal(struct {
		Series []float64 `json:"series"`
	}{x})
	return b
}

// opRecord is one measured client operation.
type opRecord struct {
	due     time.Duration // due offset from the run's start
	latency time.Duration // completion minus due time
	submit  time.Duration // acknowledgement minus send time
	points  int
	done    time.Duration // completion offset from the run's start
}

// phase is one open-loop run against one server process. Its
// schedule is window long after the warm-up.
type phase struct {
	srv    *server
	client *http.Client
	sched  *scheduler
	mon    *monitor
	res    *result
	window time.Duration

	mu          sync.Mutex
	ops         []opRecord
	traceIDs    []string
	scrapeTimes durations
	scrapeBytes []float64
	atWarm      promSample
	memAtWarm   map[string]float64
	answers     map[int][]int // the server's periods, by series
	spans       spanStats     // a traced phase's span-derived numbers
}

// newPhase prepares a phase of the run cfg. Every run measures the
// same fixed window, so a seed always offers the same operations and
// the server always holds the same number of finished jobs.
func newPhase(srv *server, res *result, cfg config) *phase {
	conns := runtime.NumCPU()
	p := &phase{
		srv: srv, client: newClient(conns), sched: newScheduler(conns), res: res,
		window: time.Duration(cfg.seconds) * time.Second, answers: map[int][]int{},
	}
	p.sched.stop(warmUp + p.window)
	return p
}

// answer records the server's (checked) periods for series k.
func (p *phase) answer(k int, periods []int) {
	p.mu.Lock()
	if _, ok := p.answers[k]; !ok {
		p.answers[k] = append([]int{}, periods...)
	}
	p.mu.Unlock()
}

// submitMs is the q-quantile of the measured operations' time from
// sending to acknowledgement.
func (p *phase) submitMs(q float64) float64 {
	ops, _ := p.measuredOps()
	var d durations
	for _, op := range ops {
		d = append(d, op.submit)
	}
	return d.ms(q)
}

// measured reports whether an action belongs to the measured window.
func (p *phase) measured(a *action) bool { return a.due >= warmUp }

func (p *phase) record(op opRecord, tid string) {
	p.mu.Lock()
	p.ops = append(p.ops, op)
	if tid != "" {
		p.traceIDs = append(p.traceIDs, tid)
	}
	p.mu.Unlock()
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.res.fail(format, args...)
	p.mu.Unlock()
}

func (p *phase) attempt() {
	p.mu.Lock()
	p.res.Attempted++
	p.mu.Unlock()
}

// addScrape schedules a GET /metrics at offset due, the way a
// Prometheus server scrapes. The scrape at the end of the warm-up also
// marks the start of the measured window: the server's counters are
// read there.
func (p *phase) addScrape(due time.Duration) {
	p.sched.add(due, func(a *action, sent time.Time) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		p.attempt()
		resp, body, err := do(ctx, p.client, "GET", p.srv.base+"/metrics", nil, nil)
		took := time.Since(sent)
		if err != nil || resp.StatusCode != http.StatusOK {
			p.fail("GET /metrics: %v %v", err, statusOf(resp))
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if a.due == warmUp {
			p.atWarm = parseProm(body)
		}
		if p.measured(a) {
			p.scrapeTimes = append(p.scrapeTimes, took)
			p.scrapeBytes = append(p.scrapeBytes, float64(len(body)))
		}
	})
}

// run runs the schedule, following the machine's steal and the
// server's CPU time, and returns the server's counters at the end.
func (p *phase) run(debugClient *http.Client) (end promSample, err error) {
	if p.srv.debugBase != "" {
		p.sched.add(warmUp, func(a *action, sent time.Time) {
			m, err := memStats(debugClient, p.srv.debugBase)
			if err != nil {
				p.fail("MemStats at warm-up end: %v", err)
			}
			p.mu.Lock()
			p.memAtWarm = m
			p.mu.Unlock()
		})
	}
	p.mon = startMonitor(p.srv.pid())
	p.sched.start = time.Now()
	p.sched.run(runtime.NumCPU())
	p.mon.close()
	resp, body, err := do(context.Background(), p.client, "GET", p.srv.base+"/metrics", nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("final scrape: %v %v", err, statusOf(resp))
	}
	if p.atWarm == nil {
		return nil, fmt.Errorf("no scrape at the end of the warm-up")
	}
	return parseProm(body), nil
}

// measuredEnd is the due offset the measured window ends at.
func (p *phase) measuredEnd() time.Duration { return warmUp + p.window }

// measuredOps returns the measured operations and the stolen slices of the
// measured window (operations may finish after it ends, so the slices
// run on to the last completion).
func (p *phase) measuredOps() (ops []opRecord, dirty []bool) {
	end, last := p.measuredEnd(), p.measuredEnd()
	for _, op := range p.ops {
		if op.due >= warmUp && op.due < end {
			ops = append(ops, op)
			if op.done > last {
				last = op.done
			}
		}
	}
	return ops, p.mon.slices(p.sched.start, warmUp, last+sliceLen, true)
}

func sliceOf(d time.Duration) int { return int((d - warmUp) / sliceLen) }

// untouched reports whether every slice from..to spans is clean.
func untouched(dirty []bool, from, to time.Duration) bool {
	for k := sliceOf(from); k <= sliceOf(to) && k < len(dirty); k++ {
		if dirty[k] {
			return false
		}
	}
	return true
}

// setOpenLoop sets the end-to-end metrics every open-loop workload
// shares from the phase's measured operations that no stolen slice
// touched (all of them when fewer than a third are clean): the latency
// quantiles, and over the clean slices the server's CPU time per
// operation and the points it detected per second of CPU time.
func (p *phase) setOpenLoop(res *result) error {
	ops, dirty := p.measuredOps()
	if len(ops) == 0 {
		return fmt.Errorf("no measured operations")
	}
	var cleanOps []opRecord
	for _, op := range ops {
		if untouched(dirty, op.due, op.done) {
			cleanOps = append(cleanOps, op)
		}
	}
	use := cleanOps
	if 3*len(cleanOps) < len(ops) {
		use = ops
	}
	var lat durations
	for _, op := range use {
		lat = append(lat, op.latency)
	}
	res.Samples["measured_ops"] = len(ops)
	res.Samples["clean_ops"] = len(cleanOps)
	res.Samples["latency_ops"] = len(use)
	res.Detail["measured_s"] = (p.measuredEnd() - warmUp).Seconds()
	res.Detail["steal_share"] = p.mon.stolen(p.sched.start.Add(warmUp), p.sched.start.Add(p.measuredEnd()))
	res.set("latency_ms_p50", lat.ms(0.50))
	res.set("latency_ms_p90", lat.ms(0.90))
	res.Detail["latency_ms_p99"] = lat.ms(0.99)

	// CPU is counted over the clean slices, with the operations due in
	// them, or over every slice when none is clean.
	end := sliceOf(p.measuredEnd())
	anyClean := false
	for k := 0; k < end; k++ {
		anyClean = anyClean || !dirty[k]
	}
	counted := func(k int) bool { return !anyClean || !dirty[k] }
	var cpu time.Duration
	for k := 0; k < end; k++ {
		if counted(k) {
			t0 := p.sched.start.Add(warmUp + time.Duration(k)*sliceLen)
			cpu += p.mon.procAt(t0.Add(sliceLen)) - p.mon.procAt(t0)
		}
	}
	n, points := 0, 0
	for _, op := range ops {
		if counted(sliceOf(op.due)) {
			n++
			points += op.points
		}
	}
	res.set("server_cpu_ms_per_op", toMS(cpu)/float64(n))
	res.set("throughput_pts_per_s", ratio(float64(points), cpu.Seconds()))
	hwm, err := procHWM(p.srv.pid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", hwm)
	return nil
}

// lagP99 is the generator's p99 lateness over the clean slices of the
// measured window (all of it when none is clean), and voids the run
// when it is too late.
func (p *phase) lagP99(res *result) float64 {
	_, dirty := p.measuredOps()
	end := p.measuredEnd()
	p.sched.mu.Lock()
	recs := append([]lagRecord(nil), p.sched.lag...)
	p.sched.mu.Unlock()
	var all, cleanLag durations
	for _, r := range recs {
		if r.due < warmUp || r.due >= end {
			continue
		}
		all = append(all, r.lag)
		if !dirty[sliceOf(r.due)] {
			cleanLag = append(cleanLag, r.lag)
		}
	}
	if len(cleanLag) == 0 {
		cleanLag = all
	}
	v := cleanLag.ms(0.99)
	if v > toMS(voidLag) && res.Void == "" {
		res.Void = fmt.Sprintf("generator lag p99 %.1f ms exceeds %v: the server could not absorb the offered load", v, voidLag)
	}
	return v
}

func statusOf(resp *http.Response) string {
	if resp == nil {
		return ""
	}
	return resp.Status
}

// serverDir makes a fresh scratch directory for one run's server
// logs and data.
func serverDir(cfg config) (string, error) {
	d := filepath.Join(cfg.workDir, "runs", cfg.workload+"-"+strconv.FormatInt(time.Now().UnixNano(), 36))
	return d, os.MkdirAll(d, 0o755)
}

// probeSeries is the fixed series set-up probes send: a period-24
// sine of n points, the same for every seed, so set-up measures the
// program and not the inputs.
func probeSeries(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	return x
}

// fetchTraces reads the span trees of up to max traces, newest first,
// from the debug listener.
func fetchTraces(c *http.Client, debugBase string, ids []string, max int) ([]traceEntry, error) {
	if len(ids) > max {
		ids = ids[len(ids)-max:]
	}
	var out []traceEntry
	for _, id := range ids {
		resp, body, err := do(context.Background(), c, "GET", debugBase+"/debug/traces/"+id, nil, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusNotFound {
			continue // evicted from the bounded store
		}
		var te traceEntry
		if err := json.Unmarshal(body, &te); err != nil {
			return nil, fmt.Errorf("trace %s: %w", id, err)
		}
		out = append(out, te)
	}
	return out, nil
}

// spanStats holds the span-derived numbers of the serve, jobs and WAL
// layers, in milliseconds.
type spanStats struct {
	overhead, exec, queueWait, walAppend, walFsync []float64
	// walTime and submitTime sum the WAL spans and the root spans of
	// the requests that appended to the WAL.
	walTime, submitTime float64
	// submit is the root span of every POST /v1/jobs. For each submit
	// that appended to the WAL, walWhole is the append with its fsync,
	// and beforeWAL and afterWAL the parts of the root span before it
	// (body read, decode, validation, payload encoding, waiting for the
	// job manager) and after it (store insert, response).
	submit, walWhole, beforeWAL, afterWAL []float64
}

func collectSpans(traces []traceEntry) spanStats {
	var st spanStats
	for _, te := range traces {
		var root, execSum, appendSum, fsyncSum float64
		var rootSpan, appendSpan *span
		hasExec := false
		for i, sp := range te.Spans {
			switch sp.Name {
			case registry.SpanRequest:
				root = sp.DurationMs
				rootSpan = &te.Spans[i]
			case registry.SpanJobExec:
				execSum += sp.DurationMs
				hasExec = true
			case registry.SpanQueueWait:
				st.queueWait = append(st.queueWait, sp.DurationMs)
			case registry.SpanWALAppend:
				appendSum += sp.DurationMs
				appendSpan = &te.Spans[i]
			case registry.SpanWALFsync:
				fsyncSum += sp.DurationMs
			}
		}
		if te.Endpoint == "jobs" {
			st.submit = append(st.submit, root)
		}
		if te.Endpoint == "detect" && hasExec {
			st.overhead = append(st.overhead, root-execSum)
			st.exec = append(st.exec, execSum)
		}
		if appendSum > 0 {
			// The fsync span nests inside the append span.
			st.walAppend = append(st.walAppend, appendSum-fsyncSum)
			st.walFsync = append(st.walFsync, fsyncSum)
			st.walTime += appendSum
			st.submitTime += root
			if rootSpan != nil && te.Endpoint == "jobs" {
				before := toMS(appendSpan.Start.Sub(rootSpan.Start))
				st.walWhole = append(st.walWhole, appendSum)
				st.beforeWAL = append(st.beforeWAL, before)
				st.afterWAL = append(st.afterWAL, root-before-appendSum)
			}
		}
	}
	return st
}

// report sets the span-derived per-layer metrics.
func (st spanStats) report(res *result) {
	res.set("serve.overhead_ms", quantile(st.overhead, 0.5))
	res.set("serve.exec_ms", quantile(st.exec, 0.5))
	res.set("serve.queue_wait_ms_p50", quantile(st.queueWait, 0.5))
	res.set("serve.queue_wait_ms_p99", quantile(st.queueWait, 0.99))
	res.set("wal.append_ms", quantile(st.walAppend, 0.5))
	res.set("wal.fsync_ms", quantile(st.walFsync, 0.5))
	res.set("wal.share_of_submit", ratio(st.walTime, st.submitTime))
	res.Samples["traced_uncached_detects"] = len(st.overhead)
	res.Samples["queue_wait_spans"] = len(st.queueWait)
	res.Samples["wal_append_spans"] = len(st.walAppend)
}

// setRuntimeFromServer sets the runtime.* metrics from the server's
// MemStats over the measured window.
func setRuntimeFromServer(res *result, before, after map[string]float64, ops int) {
	if before == nil || after == nil || ops == 0 {
		res.set("runtime.allocs_per_op", 0)
		res.set("runtime.bytes_per_op", 0)
		res.set("runtime.gc_cpu_frac", 0)
		return
	}
	res.set("runtime.allocs_per_op", (after["Mallocs"]-before["Mallocs"])/float64(ops))
	res.set("runtime.bytes_per_op", (after["TotalAlloc"]-before["TotalAlloc"])/float64(ops))
	res.set("runtime.gc_cpu_frac", after["GCCPUFraction"])
}
