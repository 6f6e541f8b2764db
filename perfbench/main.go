// Command perfbench is the repository benchmark: three workloads that
// drive the library in-process or a separately launched rpserved over
// loopback, check every answer against the library, and print the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// as one JSON object on the last line of standard output. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	workDir   string
	outDir    string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run found; it is written whole to the result file
// and summarised on standard output.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     int                `json:"seconds"`
	InputDigest string             `json:"input_digest"`
	Env         map[string]string  `json:"env"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Void        string             `json:"void,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
	Samples     map[string]int     `json:"samples"`
	Detail      map[string]float64 `json:"detail,omitempty"`
	Claims      map[string]bool    `json:"claims,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
}

func newResult(cfg config) *result {
	return &result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  cfg.seconds,
		Env: map[string]string{
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go_version": runtime.Version(),
			"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		},
		Samples: map[string]int{},
		Detail:  map[string]float64{},
		Claims:  map[string]bool{},
		Metrics: map[string]metric{},
	}
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every output check passed, the run was not
// void and every isolation claim of a traced run held.
func (r *result) correct() bool {
	for _, ok := range r.Claims {
		if !ok {
			return false
		}
	}
	return r.Failed == 0 && r.Void == "" && r.Attempted > 0
}

// units declares every metric the benchmark can report. The
// end-to-end set is printed with --trace 0, the per-layer set with
// --trace 1; BENCHMARK.json at the repository root lists the same names.
var units = map[string]string{
	// End-to-end.
	"setup_s":              "s",
	"latency_ms_p50":       "ms",
	"latency_ms_p90":       "ms",
	"throughput_pts_per_s": "pts/s",
	"server_cpu_ms_per_op": "ms",
	"period_f1":            "ratio",
	"peak_rss_mb":          "MB",

	// Per-layer.
	"spectrum.periodogram_ms":       "ms",
	"spectrum.acf_ms":               "ms",
	"spectrum.share_of_detect":      "ratio",
	"spectrum.solver_iters":         "count",
	"spectrum.prefilter_skip_ratio": "ratio",
	"spectrum.warm_hit_ratio":       "ratio",
	"hp.detrend_ms":                 "ms",
	"wavelet.modwt_ms":              "ms",
	"wavelet.variance_ms":           "ms",
	"core.glue_ms":                  "ms",
	"core.levels_selected":          "count",
	"detect.fisher_pass":            "count",
	"detect.acf_accept":             "count",
	"runtime.allocs_per_op":         "count",
	"runtime.bytes_per_op":          "B",
	"runtime.gc_cpu_frac":           "ratio",
	"serve.overhead_ms":             "ms",
	"serve.exec_ms":                 "ms",
	"serve.queue_wait_ms_p50":       "ms",
	"serve.queue_wait_ms_p99":       "ms",
	"serve.cache_hit_ratio":         "ratio",
	"serve.shed":                    "count",
	"serve.degraded":                "count",
	"jobs.coalesce_ratio":           "ratio",
	"jobs.queue_wait_ms_p99":        "ms",
	"jobs.polls_per_job":            "count",
	"jobs.submit_ms_p50":            "ms",
	"jobs.submit_ms_p99":            "ms",
	"wal.append_ms":                 "ms",
	"wal.fsync_ms":                  "ms",
	"wal.fsyncs_per_submit":         "count",
	"wal.bytes_per_job":             "B",
	"wal.share_of_submit":           "ratio",
	"obs.scrape_ms":                 "ms",
	"obs.scrape_bytes":              "B",
	"trace.overhead_frac":           "ratio",
	"loadgen.lag_ms_p99":            "ms",
}

// endToEnd lists the metrics of a --trace 0 run, in print order.
var endToEnd = []string{
	"setup_s", "latency_ms_p50", "latency_ms_p90",
	"throughput_pts_per_s", "server_cpu_ms_per_op",
	"period_f1", "peak_rss_mb",
}

// perLayer lists the metrics of a --trace 1 run: every declared
// metric that is not end-to-end.
func perLayer() []string {
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range units {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

var workloads = map[string]func(config, *result) error{
	"detect-long":  runDetectLong,
	"serve-open":   runServeOpen,
	"jobs-durable": runJobsDurable,
}

func main() {
	var cfg config
	var traceFlag int
	var probe bool
	var compare string
	flag.StringVar(&cfg.workload, "workload", "", "workload: detect-long, serve-open or jobs-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed generates the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.serverBin, "server-bin", ".bench_build/rpserved", "rpserved binary")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "scratch directory for data dirs, logs and results")
	flag.StringVar(&cfg.outDir, "out", "", "result-file directory (default <work-dir>/results)")
	flag.BoolVar(&probe, "probe-setup", false, "internal: run one detect-long set-up probe and exit")
	flag.StringVar(&compare, "compare", "", "compare two result directories, given as OLD,NEW, and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if compare != "" {
		old, new, ok := strings.Cut(compare, ",")
		if !ok {
			fatalf("--compare wants OLD,NEW")
		}
		if err := compareResults(old, new); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if probe {
		if err := setupProbeChild(); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("ready")
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown --workload %q (want detect-long, serve-open or jobs-durable)", cfg.workload)
	}
	if cfg.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.serverBin); err != nil && cfg.workload != "detect-long" {
		fatalf("server binary: %v", err)
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.workDir, "results")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	res := newResult(cfg)
	if err := run(cfg, res); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer()
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			fatalf("%s: metric %s was not measured", cfg.workload, name)
		}
	}
	path, err := writeResult(cfg, res)
	if err != nil {
		fatalf("%v", err)
	}
	printSummary(res, want, path)
	if !res.correct() {
		os.Exit(1)
	}
}

// writeResult stores the full result as JSON in the result directory.
func writeResult(cfg config, res *result) (string, error) {
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, map[bool]int{false: 0, true: 1}[res.Trace], time.Now().UnixNano())
	path := filepath.Join(cfg.outDir, name)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write result file: %w", err)
	}
	return path, nil
}

// printSummary prints the human-readable lines and, last, the one-line
// JSON object that ends every run's output.
func printSummary(res *result, names []string, path string) {
	fmt.Printf("workload=%s seed=%d trace=%v inputs=%s nproc=%s go=%s",
		res.Workload, res.Seed, res.Trace, res.InputDigest, res.Env["nproc"], res.Env["go_version"])
	if fs := res.Env["data_dir_fs"]; fs != "" {
		fmt.Printf(" data_dir_fs=%s", fs)
	}
	fmt.Println()
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples %-28s %d\n", k, res.Samples[k])
	}
	for _, k := range sortedKeys(res.Claims) {
		fmt.Printf("  claim   %-28s %v\n", k, res.Claims[k])
		if !res.Claims[k] {
			fmt.Printf("FAILED: claim %s does not hold\n", k)
		}
	}
	out := map[string]metric{}
	for _, n := range names {
		m := res.Metrics[n]
		out[n] = m
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted=%d failed=%d result_file=%s\n", res.Attempted, res.Failed, path)
	if res.Void != "" {
		fmt.Printf("VOID: %s\n", res.Void)
	}
	for _, p := range res.Problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, out})
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dropEndToEnd removes the end-to-end metrics a traced run measured on
// the way to its per-layer ones; they never feed the end-to-end set.
func (r *result) dropEndToEnd() {
	for _, n := range endToEnd {
		delete(r.Metrics, n)
	}
}
