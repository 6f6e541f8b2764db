package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// burstRate is the fixed rate of distinct series arriving at
	// jobs-durable, in bursts per second; each burst is 4–8 submits.
	burstRate = 20
	// tenants is the number of X-API-Key tenants submitting.
	tenants = 16
	// burstSpread is how far apart a burst's submits are scheduled.
	burstSpread = 3 * time.Millisecond
	// pollCap caps the wait between polls of a job below the server's
	// Retry-After, which is whole seconds.
	pollCap = 2 * time.Millisecond
)

// submit is one scheduled POST /v1/jobs.
type submit struct {
	due    time.Duration
	series int
	tenant int
}

type jobsInputs struct {
	series  []labeled
	submits []submit
	bodies  [][]byte
	want    [][]int
}

func genJobs(seed int64, total time.Duration) jobsInputs {
	rng := rand.New(rand.NewSource(seed))
	gen := newShortGen(rng, 256, 512)
	size := newDeck(rng, 5)
	var in jobsInputs
	for _, t := range arrivals(rng, burstRate, total) {
		in.series = append(in.series, gen.next())
		k := len(in.series) - 1
		for _, tn := range rng.Perm(tenants)[:4+size.next()] {
			off := time.Duration(rng.Int63n(int64(burstSpread)))
			in.submits = append(in.submits, submit{due: t + off, series: k, tenant: tn})
		}
	}
	return in
}

func (in jobsInputs) schedule() []int64 {
	out := make([]int64, 0, 3*len(in.submits))
	for _, s := range in.submits {
		out = append(out, int64(s.due), int64(s.series), int64(s.tenant))
	}
	return out
}

func runJobsDurable(cfg config, res *result) error {
	window := time.Duration(cfg.seconds) * time.Second
	in := genJobs(cfg.seed, warmUp+window)
	res.InputDigest = inputDigest(in.series, in.schedule())
	res.Samples["distinct_series"] = len(in.series)
	res.Samples["scheduled_submits"] = len(in.submits)
	want, err := expected(in.series)
	if err != nil {
		return err
	}
	in.want = want
	for _, s := range in.series {
		in.bodies = append(in.bodies, detectBody(s.X))
	}
	dir, err := serverDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res.Env["data_dir_fs"] = fsType(dir)

	if !cfg.trace {
		setup, err := serverSetup(cfg.serverBin, dir, func(i int) []string {
			return durableFlags(filepath.Join(dir, "probe-"+strconv.Itoa(i)), walFsync)
		}, firstJob)
		if err != nil {
			return err
		}
		res.set("setup_s", setup.Seconds())
		p, _, err := jobsPhase(cfg, res, &in, dir, false, "data", walFsync)
		if err != nil {
			return err
		}
		p.lagP99(res)
		return nil
	}

	plain, pe, err := jobsPhase(cfg, res, &in, dir, false, "data-plain", walFsync)
	if err != nil {
		return err
	}
	plainP50 := res.Metrics["latency_ms_p50"].Value
	polls := res.Samples["polls"]
	jobQueue := res.Metrics["jobs.queue_wait_ms_p99"].Value
	submitP50, submitP99 := plain.submitMs(0.5), plain.submitMs(0.99)
	traced, _, err := jobsPhase(cfg, res, &in, dir, true, "data-traced", walFsync)
	if err != nil {
		return err
	}
	tracedP50 := res.Metrics["latency_ms_p50"].Value
	// The A/B legs, traced, on a shorter window: the same traffic with
	// no WAL, whose submits are everything a submit does besides the
	// WAL; then with an fsync before every acknowledgement, the flag's
	// default, whose spans give the wal.* span metrics, the cost the
	// WAL puts on each submit.
	ab := cfg
	ab.seconds = min(cfg.seconds, abSeconds)
	memory, _, err := jobsPhase(ab, res, &in, dir, true, "", "")
	if err != nil {
		return err
	}
	always, _, err := jobsPhase(ab, res, &in, dir, true, "data-always", "always")
	if err != nil {
		return err
	}
	res.dropEndToEnd()
	if err := serviceLayers(res, plain, pe, traced, in.series); err != nil {
		return err
	}
	res.set("trace.overhead_frac", tracedP50/plainP50-1)
	res.set("jobs.polls_per_job", float64(polls)/float64(pe.ops))
	res.set("jobs.queue_wait_ms_p99", jobQueue)
	res.set("jobs.submit_ms_p50", submitP50)
	res.set("jobs.submit_ms_p99", submitP99)
	res.set("wal.bytes_per_job", ratio(pe.walBytes, pe.end.sum("rp_jobs_submitted_total")-pe.atWarm.sum("rp_jobs_submitted_total")))

	// The WAL is the largest part of a submit when, in the median
	// submit, the append with its fsync takes longer than a whole
	// submit without a WAL (the server's root span), which holds every
	// other part. The split of the durable submit's root span around
	// the append is recorded beside it.
	st := always.spans
	wal, rest := quantile(st.walWhole, 0.5), quantile(memory.spans.submit, 0.5)
	res.Detail["submit_wal_ms_p50"] = wal
	res.Detail["submit_without_wal_ms_p50"] = rest
	res.Detail["submit_before_wal_ms_p50"] = quantile(st.beforeWAL, 0.5)
	res.Detail["submit_after_wal_ms_p50"] = quantile(st.afterWAL, 0.5)
	if memoryFS(res.Env["data_dir_fs"]) {
		// An fsync on a memory filesystem writes nothing, so the claim
		// is about a disk this run does not have.
		res.Detail["wal_claim_not_applicable"] = 1
		return nil
	}
	res.Claims["wal_is_largest_part_of_submit"] = len(st.walWhole) > 0 && len(memory.spans.submit) > 0 && wal > rest
	return nil
}

// abSeconds bounds the measured window of the traced run's A/B legs,
// which only have to give enough submits for their medians.
const abSeconds = 8

// memoryFS reports whether a filesystem type keeps its files in memory.
func memoryFS(typ string) bool { return typ == "tmpfs" || typ == "ramfs" }

// walFile and walHeader are the WAL segment's file name in the data
// directory and the size of the magic a fresh segment starts with.
const (
	walFile   = "jobs.wal"
	walHeader = 8
)

// walWatcher follows the size of the WAL segment file and adds up what
// was appended to it, across compactions, which restart the segment
// at its header.
type walWatcher struct {
	path       string
	mu         sync.Mutex
	seen       bool
	last, sum  int64
	stop, done chan struct{}
}

func watchWAL(path string) *walWatcher {
	w := &walWatcher{path: path, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.poll()
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *walWatcher) poll() {
	fi, err := os.Stat(w.path)
	if err != nil {
		return
	}
	n := fi.Size()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case !w.seen:
		w.seen = true
	case n >= w.last:
		w.sum += n - w.last
	default:
		w.sum += n - walHeader
	}
	w.last = n
}

// written is the number of bytes appended so far.
func (w *walWatcher) written() int64 {
	w.poll()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sum
}

func (w *walWatcher) close() {
	close(w.stop)
	<-w.done
}

// walFsync is jobs-durable's WAL fsync policy: every 25 ms. With an
// fsync before every acknowledgement (-fsync always) the submit and
// latency quantiles followed the shared disk and varied by 25–57%
// between seeds of the same mix; the traced run measures that policy
// as an A/B leg.
const walFsync = "25ms"

// durableFlags are rpserved's flags for a WAL in dataDir.
func durableFlags(dataDir, fsync string) []string {
	return []string{"-data-dir", dataDir, "-fsync", fsync}
}

// firstJob is the jobs-durable set-up probe request.
func firstJob(c *http.Client, base string) error {
	resp, _, err := do(context.Background(), c, "POST", base+"/v1/jobs", detectBody(probeSeries(64)), nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("probe job: %s", resp.Status)
	}
	return nil
}

// jobStatus is the part of a GET /v1/jobs/{id} answer the benchmark
// reads.
type jobStatus struct {
	State     string  `json:"state"`
	Coalesced bool    `json:"coalesced"`
	QueuedMs  float64 `json:"queuedMs"`
	Result    *struct {
		Periods []int `json:"periods"`
	} `json:"result"`
}

// jobsPhase launches one durable rpserved on a fresh data directory
// (or, with data empty, one that keeps its jobs in memory) and runs the
// jobs-durable schedule against it: every submit is polled until its
// job is done, and the result checked.
func jobsPhase(cfg config, res *result, in *jobsInputs, dir string, traced bool, data, fsync string) (*phase, phaseEnd, error) {
	var flags []string
	if data != "" {
		flags = durableFlags(filepath.Join(dir, data), fsync)
	}
	if traced {
		flags = append(flags, "-trace-sample", "1", "-trace-store", fmt.Sprint(traceFetchMax*2))
	}
	start := time.Now()
	srv, err := startServer(cfg.serverBin, dir, cfg.trace, flags...)
	if err != nil {
		return nil, phaseEnd{}, err
	}
	defer srv.stop()
	probe := &http.Client{Timeout: 5 * time.Second}
	if _, err := srv.waitReady(start, func() error { return firstJob(probe, srv.base) }); err != nil {
		return nil, phaseEnd{}, err
	}

	p := newPhase(srv, res, cfg)
	p.addScrape(warmUp)
	// The bytes the WAL appends over the measured window, read from
	// the segment file's size: it covers every record a job writes
	// (submit, start, finish) with its framing.
	var walAtWarm int64
	wal := watchWAL(filepath.Join(dir, data, walFile))
	defer wal.close()
	p.sched.add(warmUp, func(*action, time.Time) { walAtWarm = wal.written() })
	var polls atomic.Int64
	var queued []float64
	for i := range in.submits {
		s := in.submits[i]
		p.sched.add(s.due, func(a *action, sent time.Time) {
			id, tid, ok := p.submitJob(in, s)
			if !ok {
				return
			}
			ack := time.Now()
			var poll func(pa *action, psent time.Time)
			poll = func(pa *action, psent time.Time) {
				if p.measured(a) {
					polls.Add(1)
				}
				st, wait, ok := p.pollJob(id)
				switch {
				case !ok:
				case st == nil:
					p.sched.follow(p.sched.elapsed()+wait, poll)
				case st.Result == nil || !samePeriods(st.Result.Periods, in.want[s.series]):
					p.fail("job %s (series %d): state %s, result %v, library %v", id, s.series, st.State, st.Result, in.want[s.series])
				default:
					p.answer(s.series, st.Result.Periods)
					if !p.measured(a) {
						break
					}
					done := time.Now()
					p.record(opRecord{
						due:     a.due,
						latency: done.Sub(p.sched.dueTime(a)),
						submit:  ack.Sub(sent),
						points:  len(in.series[s.series].X),
						done:    done.Sub(p.sched.start),
					}, tid)
					if !st.Coalesced {
						p.mu.Lock()
						queued = append(queued, st.QueuedMs)
						p.mu.Unlock()
					}
				}
			}
			p.sched.follow(p.sched.elapsed()+pollCap, poll)
		})
	}
	end, err := p.run(probe)
	if err != nil {
		return nil, phaseEnd{}, err
	}
	walEnd := wal.written()
	if err := p.setOpenLoop(res); err != nil {
		return nil, phaseEnd{}, err
	}
	// period_f1 scores the server's results for the series submitted
	// before the window's nominal end, which every run of a seed sends.
	var score f1
	seen := map[int]bool{}
	for _, sub := range in.submits {
		if sub.due < warmUp+p.window && !seen[sub.series] {
			seen[sub.series] = true
			score.add(in.series[sub.series].Truth, p.answers[sub.series])
		}
	}
	res.set("period_f1", score.value())
	res.Samples["polls"] = int(polls.Load())
	res.set("jobs.queue_wait_ms_p99", quantile(queued, 0.99))
	ops, _ := p.measuredOps()
	pe := phaseEnd{atWarm: p.atWarm, end: end, memBefore: p.memAtWarm, ops: len(ops), walBytes: float64(walEnd - walAtWarm)}
	if srv.debugBase != "" {
		if pe.memAfter, err = memStats(probe, srv.debugBase); err != nil {
			return nil, phaseEnd{}, err
		}
	}
	if traced {
		traces, err := fetchTraces(probe, srv.debugBase, p.traceIDs, traceFetchMax)
		if err != nil {
			return nil, phaseEnd{}, err
		}
		res.Samples["traces_fetched"] = len(traces)
		p.spans = collectSpans(traces)
		p.spans.report(res)
	}
	return p, pe, nil
}

// submitJob posts one job and returns its ID and, when sampled, its
// trace ID.
func (p *phase) submitJob(in *jobsInputs, s submit) (id, tid string, ok bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	p.attempt()
	hdr := map[string]string{"X-API-Key": fmt.Sprintf("tenant-%02d", s.tenant)}
	resp, body, err := do(ctx, p.client, "POST", p.srv.base+"/v1/jobs", in.bodies[s.series], hdr)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		p.fail("POST /v1/jobs: %v %s", err, statusOf(resp))
		return "", "", false
	}
	var sr struct {
		JobID string `json:"jobId"`
	}
	if err := json.Unmarshal(body, &sr); err != nil || sr.JobID == "" {
		p.fail("POST /v1/jobs: bad body %q", body)
		return "", "", false
	}
	return sr.JobID, traceID(resp.Header), true
}

// pollJob reads a job's status. It returns the status once the job is
// terminal, or nil and the wait before the next poll (Retry-After,
// capped at pollCap).
func (p *phase) pollJob(id string) (*jobStatus, time.Duration, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, body, err := do(ctx, p.client, "GET", p.srv.base+"/v1/jobs/"+id, nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		p.fail("GET /v1/jobs/%s: %v %s", id, err, statusOf(resp))
		return nil, 0, false
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		p.fail("GET /v1/jobs/%s: bad body: %v", id, err)
		return nil, 0, false
	}
	switch st.State {
	case "done", "failed":
		return &st, 0, true
	}
	wait := pollCap
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && time.Duration(ra)*time.Second < wait {
		wait = time.Duration(ra) * time.Second
	}
	return nil, wait, true
}
