package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"time"

	"robustperiod"
)

// setupProbes is how many times a run measures set-up; setup_s is the
// median of the probes the hypervisor did not steal from.
const setupProbes = 31

// runDetectLong is the library workload: one caller, closed loop,
// default options, cycling through the seeded long-series corpus until
// the measured time is used up and at least one whole pass is done.
// Each series' time is its fastest detect the hypervisor did not steal
// from (its fastest detect when every one was stolen from), so the
// figures describe the corpus and not the machine's neighbours.
func runDetectLong(cfg config, res *result) error {
	corpus := genLong(cfg.seed)
	res.InputDigest = inputDigest(corpus, nil)
	if cfg.trace {
		return traceDetectLong(corpus, res)
	}
	mon := startMonitor(0)
	defer mon.close()

	setup, err := librarySetup(mon)
	if err != nil {
		return err
	}
	res.set("setup_s", setup.Seconds())

	// Warm-up: one detect at each size fills this process's plan caches.
	if err := setupProbeChild(); err != nil {
		return fmt.Errorf("warm-up detect: %w", err)
	}

	type best struct {
		wall, cpu time.Duration
		clean     bool
	}
	bests := make([]*best, len(corpus))
	first := make([][]int, len(corpus))
	var score f1
	stolen := 0
	detectOne := func(i, pass int) {
		s := corpus[i]
		res.Attempted++
		mon.sample()
		c0, t0 := selfCPU(), time.Now()
		r, err := robustperiod.DetectDetails(s.X, nil)
		t1, cpu := time.Now(), selfCPU()-c0
		mon.sample()
		if err != nil {
			res.fail("series %d: %v", i, err)
			return
		}
		if pass == 0 {
			first[i] = append([]int{}, r.Periods...)
			score.add(s.Truth, r.Periods)
		} else if !samePeriods(first[i], r.Periods) {
			res.fail("series %d pass %d: periods %v, first pass %v", i, pass, r.Periods, first[i])
		}
		clean := mon.stolen(t0, t1) <= stealMax
		if !clean {
			stolen++
		}
		b, wall := bests[i], t1.Sub(t0)
		if b == nil || (clean && !b.clean) || (clean == b.clean && wall < b.wall) {
			bests[i] = &best{wall: wall, cpu: cpu, clean: clean}
		}
	}

	window := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	passes := 0
	// The first pass always completes, so period_f1 covers the whole
	// corpus; later passes stop when the measured time is used up.
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for i := range corpus {
			if pass > 0 && time.Since(start) >= window {
				break
			}
			detectOne(i, pass)
		}
		passes++
	}
	res.Detail["steal_share"] = mon.stolen(start, time.Now())

	var lat []float64
	var points int64
	var wall, cpu time.Duration
	unclean := 0
	for i, b := range bests {
		if b == nil {
			continue // failed; counted above
		}
		if !b.clean {
			unclean++
		}
		lat = append(lat, toMS(b.wall))
		points += int64(len(corpus[i].X))
		wall += b.wall
		cpu += b.cpu
	}
	if len(lat) == 0 {
		return fmt.Errorf("no detect succeeded")
	}
	res.Samples["passes"] = passes
	res.Samples["detects"] = res.Attempted
	res.Samples["stolen_detects"] = stolen
	res.Samples["series_without_clean_detect"] = unclean
	res.set("latency_ms_p50", quantile(lat, 0.50))
	res.set("latency_ms_p90", quantile(lat, 0.90))
	res.Detail["latency_ms_p99"] = quantile(lat, 0.99)
	res.set("throughput_pts_per_s", float64(points)/wall.Seconds())
	res.set("server_cpu_ms_per_op", toMS(cpu)/float64(len(lat)))
	res.set("period_f1", score.value())
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", hwm)
	return nil
}

// traceDetectLong replays one pass of the corpus layer by layer.
func traceDetectLong(corpus []labeled, res *result) error {
	if err := setupProbeChild(); err != nil {
		return fmt.Errorf("warm-up detect: %w", err)
	}
	lt, err := replayLayers(corpus, res)
	if err != nil {
		return err
	}
	res.Attempted = lt.detects
	lt.report(res, true)
	res.set("trace.overhead_frac", ratio(float64(lt.traced), float64(lt.plain))-1)
	for _, name := range []string{
		"serve.overhead_ms", "serve.exec_ms", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99",
		"serve.cache_hit_ratio", "serve.shed", "serve.degraded",
		"jobs.coalesce_ratio", "jobs.queue_wait_ms_p99", "jobs.polls_per_job",
		"jobs.submit_ms_p50", "jobs.submit_ms_p99",
		"wal.append_ms", "wal.fsync_ms", "wal.fsyncs_per_submit", "wal.bytes_per_job", "wal.share_of_submit",
		"obs.scrape_ms", "obs.scrape_bytes", "loadgen.lag_ms_p99",
	} {
		res.set(name, 0) // no service layer and no generator on this workload
	}
	res.Claims["periodogram_at_least_80pct_of_detect"] = res.Metrics["spectrum.share_of_detect"].Value >= 0.8
	return nil
}

// librarySetup measures set-up for the library workload: the median,
// over fresh processes, of the time from process start until a first
// detect at every corpus size has returned (which fills the
// process-wide trig and Bluestein plan caches).
func librarySetup(mon *monitor) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var all, clean durations
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--probe-setup")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		mon.sample()
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("start set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		end := time.Now()
		mon.sample()
		werr := cmd.Wait()
		if rerr != nil || werr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe failed: %q %v %v", line, rerr, werr)
		}
		all = append(all, end.Sub(start))
		if mon.stolen(start, end) <= stealMax {
			clean = append(clean, end.Sub(start))
		}
	}
	return cleanMedian(all, clean), nil
}

// setupProbeChild is the body of one set-up probe process, and the
// warm-up of a run: one detect of the fixed probe series at each
// corpus size.
func setupProbeChild() error {
	for _, sz := range longSizes {
		if _, err := robustperiod.DetectDetails(probeSeries(sz.n), nil); err != nil {
			return err
		}
	}
	return nil
}
