package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// monitorEvery is how often the monitor samples /proc/stat (and the
	// measured process's CPU time).
	monitorEvery = 100 * time.Millisecond
	// sliceLen is the unit of the measured window that is judged clean
	// or stolen as a whole.
	sliceLen = time.Second
	// stealMax is the largest share of the machine's CPU time the
	// hypervisor may steal during an interval for the interval to count
	// as clean. On a shared 2-vCPU VM steal comes in episodes of tens of
	// seconds, during which every wall-clock figure reads 30–150% high;
	// outside them it is 0.
	stealMax = 0.01
)

// cpuSample is one reading of the machine's CPU counters (clock ticks)
// and, when the monitor follows a process, of its CPU time.
type cpuSample struct {
	at           time.Time
	steal, total uint64
	proc         time.Duration
}

// monitor samples the machine's CPU steal, and optionally one process's
// CPU time, so that a run can tell which parts of its measured window
// the hypervisor took away and leave them out.
type monitor struct {
	pid     int // 0: no process
	mu      sync.Mutex
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

// startMonitor starts sampling every monitorEvery until close.
func startMonitor(pid int) *monitor {
	m := &monitor{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *monitor) close() {
	close(m.stop)
	<-m.done
}

// sample takes one reading now; callers that time short operations
// call it at both ends so the reading brackets them exactly.
func (m *monitor) sample() {
	m.mu.Lock() // held while reading, so samples stay in time order
	defer m.mu.Unlock()
	s, ok := readCPUStat()
	if !ok {
		return
	}
	if m.pid != 0 {
		if c, err := procCPU(m.pid); err == nil {
			s.proc = c
		}
	}
	m.samples = append(m.samples, s)
}

// cleanMedian is the median of the timings whose interval the
// hypervisor did not steal from, or of all of them when fewer than a
// third are clean.
func cleanMedian(all, clean durations) time.Duration {
	use := clean
	if 3*len(clean) < len(all) {
		use = all
	}
	return time.Duration(use.ms(0.5) * float64(time.Millisecond))
}

// readCPUStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal.
func readCPUStat() (cpuSample, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}, false
	}
	s := cpuSample{at: time.Now()}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuSample{}, false
		}
		s.total += v
	}
	s.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return s, true
}

// bracket returns the last sample at or before t0 and the first at or
// after t1 (the nearest ones where none lie beyond).
func (m *monitor) bracket(t0, t1 time.Time) (a, b cpuSample, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) < 2 {
		return a, b, false
	}
	i, j := 0, len(m.samples)-1
	for k, s := range m.samples {
		if !s.at.After(t0) {
			i = k
		}
	}
	for k := len(m.samples) - 1; k >= 0; k-- {
		if !m.samples[k].at.Before(t1) {
			j = k
		}
	}
	if j <= i {
		return a, b, false
	}
	return m.samples[i], m.samples[j], true
}

// stolen is the share of the machine's CPU time stolen over [t0, t1],
// widened to the enclosing samples.
func (m *monitor) stolen(t0, t1 time.Time) float64 {
	a, b, ok := m.bracket(t0, t1)
	if !ok {
		return 0
	}
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// procAt is the followed process's CPU time at the last sample at or
// before t.
func (m *monitor) procAt(t time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var v time.Duration
	for _, s := range m.samples {
		if s.at.After(t) {
			break
		}
		v = s.proc
	}
	return v
}

// slices judges the one-second slices of the window [from, to) after
// start: dirty[k] when steal in slice k, or in slice k-1 when carry is
// set (an open loop's backlog outlives the steal by up to a slice),
// passes stealMax.
func (m *monitor) slices(start time.Time, from, to time.Duration, carry bool) []bool {
	n := int((to - from + sliceLen - 1) / sliceLen)
	dirty := make([]bool, n)
	prev := false
	for k := range dirty {
		t0 := start.Add(from + time.Duration(k)*sliceLen)
		s := m.stolen(t0, t0.Add(sliceLen)) > stealMax
		dirty[k] = s || (carry && prev)
		prev = s
	}
	return dirty
}
