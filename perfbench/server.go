package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one launched rpserved process.
type server struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	debugBase string // empty without a debug listener
	log       *os.File
	listening chan struct{} // closed once the server logs its bound address
	exited    chan error
}

// startServer launches rpserved on loopback ports with extra flags,
// logging to a file under dir. It does not wait for readiness.
func startServer(bin, dir string, debug bool, extra ...string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	s := &server{base: "http://" + addr, listening: make(chan struct{}), exited: make(chan error, 1)}
	if debug {
		daddr, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", daddr)
		s.debugBase = "http://" + daddr
	}
	logf, err := os.CreateTemp(dir, "rpserved-*.log")
	if err != nil {
		return nil, err
	}
	s.log = logf
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = &readyWriter{w: logf, ready: s.listening}
	// If the benchmark dies, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rpserved: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM, kills it if the drain takes
// longer than 15 s, and waits for the process to end.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("rpserved did not drain within 15s")
	}
}

// listenLine is the message rpserved logs, in text or JSON form, once
// its API listener is bound.
var listenLine = []byte(`"api listening"`)

// readyWriter passes the server's log through to a file and closes
// ready at the line that says the API listener is bound.
type readyWriter struct {
	w     io.Writer
	ready chan struct{}
	seen  bool
}

func (r *readyWriter) Write(p []byte) (int, error) {
	if !r.seen && bytes.Contains(p, listenLine) {
		r.seen = true
		close(r.ready)
	}
	return r.w.Write(p)
}

// waitReady waits until the server has bound its listener, sends probe
// and returns the time from start until probe succeeded.
func (s *server) waitReady(start time.Time, probe func() error) (time.Duration, error) {
	select {
	case <-s.listening:
	case werr := <-s.exited:
		s.exited <- werr
		return 0, fmt.Errorf("rpserved exited during start-up: %v (see %s)", werr, s.log.Name())
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("rpserved did not listen within 30s (see %s)", s.log.Name())
	}
	if err := probe(); err != nil {
		return 0, fmt.Errorf("first request: %w", err)
	}
	return time.Since(start), nil
}

// serverSetup measures set-up for a service workload: the median, over
// fresh processes the hypervisor did not steal from, of the time from
// process start to the first request served. args makes each probe's
// flags (fresh data dirs).
func serverSetup(bin, dir string, args func(i int) []string, first func(c *http.Client, base string) error) (time.Duration, error) {
	mon := startMonitor(0)
	defer mon.close()
	var all, clean durations
	c := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < setupProbes; i++ {
		mon.sample()
		start := time.Now()
		s, err := startServer(bin, dir, false, args(i)...)
		if err != nil {
			return 0, err
		}
		d, err := s.waitReady(start, func() error { return first(c, s.base) })
		mon.sample()
		c.CloseIdleConnections()
		if serr := s.stop(); err == nil && serr != nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
		all = append(all, d)
		if mon.stolen(start, start.Add(d)) <= stealMax {
			clean = append(clean, d)
		}
	}
	return cleanMedian(all, clean), nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient returns an HTTP client that holds at most conns
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// do sends one request and reads the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// After the command name: state is field 3, utime 14, stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsType names the filesystem holding dir, from /proc/self/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// promSample is a parsed Prometheus text exposition: series name with
// labels -> value.
type promSample map[string]float64

func parseProm(body []byte) promSample {
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of a family (all label sets).
func (p promSample) sum(family string) float64 {
	total := 0.0
	for k, v := range p {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// memStats reads runtime.MemStats fields from the pprof heap page of a
// debug listener.
func memStats(c *http.Client, debugBase string) (map[string]float64, error) {
	resp, body, err := do(context.Background(), c, "GET", debugBase+"/debug/pprof/heap?debug=1", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("heap profile: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = f
		}
	}
	for _, k := range []string{"Mallocs", "TotalAlloc", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("heap profile lacks MemStats field %s", k)
		}
	}
	return out, nil
}

// span is the part of a /debug/traces/{id} span the benchmark reads.
type span struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Attrs      []struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	} `json:"attrs"`
}

// traceEntry is the part of a /debug/traces/{id} body the benchmark
// reads.
type traceEntry struct {
	Endpoint string `json:"endpoint"`
	Spans    []span `json:"spans"`
}

// traceID extracts the trace ID from a traceparent response header.
func traceID(h http.Header) string {
	parts := strings.Split(h.Get("traceparent"), "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}
