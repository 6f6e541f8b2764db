package main

import (
	"container/heap"
	"sync"
	"time"
)

// action is one scheduled client operation of an open-loop run.
type action struct {
	due     time.Duration // offset from the run's start
	seq     int           // tie-break: scheduling order
	primary bool          // part of the precomputed schedule, not a follow-up
	exec    func(a *action, sent time.Time)
}

type actionHeap []*action

func (h actionHeap) Len() int { return len(h) }
func (h actionHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h actionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *actionHeap) Push(x any)   { *h = append(*h, x.(*action)) }
func (h *actionHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// scheduler runs a precomputed open-loop schedule on a fixed number of
// client workers: each worker takes the earliest due action, sleeps
// until it is due, and runs it. Actions may schedule follow-ups (job
// polls). An action that finds every worker busy runs late; the delay
// is recorded as generator lag and, because latency is timed from the
// due time, also counts in the operation's latency. Once stopAt is set,
// scheduled actions due at or after it are dropped unsent; follow-ups
// still run, so every operation already begun completes.
type scheduler struct {
	mu      sync.Mutex
	h       actionHeap
	seq     int
	running int
	start   time.Time
	stopAt  time.Duration // 0: run the whole schedule
	wake    chan struct{}
	lag     []lagRecord
}

// lagRecord is how late one action was sent.
type lagRecord struct{ due, lag time.Duration }

func newScheduler(workers int) *scheduler {
	return &scheduler{wake: make(chan struct{}, workers)}
}

// add schedules an action of the precomputed schedule at offset due.
func (s *scheduler) add(due time.Duration, exec func(a *action, sent time.Time)) {
	s.push(&action{due: due, primary: true, exec: exec})
}

// follow schedules a follow-up of a running operation at offset due.
func (s *scheduler) follow(due time.Duration, exec func(a *action, sent time.Time)) {
	s.push(&action{due: due, exec: exec})
}

func (s *scheduler) push(a *action) {
	s.mu.Lock()
	s.seq++
	a.seq = s.seq
	heap.Push(&s.h, a)
	s.mu.Unlock()
	s.signal()
}

// stop drops the scheduled actions due at or after offset at.
func (s *scheduler) stop(at time.Duration) {
	s.mu.Lock()
	s.stopAt = at
	s.mu.Unlock()
	s.signal()
}

func (s *scheduler) signal() {
	for {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// run executes the schedule from its start (now, unless set) on workers
// goroutines and returns once the heap is empty and no action is
// running.
func (s *scheduler) run(workers int) {
	s.mu.Lock()
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
}

func (s *scheduler) work() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if len(s.h) == 0 {
			if s.running == 0 {
				s.mu.Unlock()
				s.signal() // let the other workers see the end
				return
			}
			s.mu.Unlock()
			<-s.wake
			continue
		}
		a := s.h[0]
		if a.primary && s.stopAt > 0 && a.due >= s.stopAt {
			heap.Pop(&s.h)
			s.mu.Unlock()
			continue
		}
		due := s.start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			s.mu.Unlock()
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-s.wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
			continue
		}
		heap.Pop(&s.h)
		s.running++
		sent := time.Now()
		s.lag = append(s.lag, lagRecord{a.due, sent.Sub(due)})
		s.mu.Unlock()

		a.exec(a, sent)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.signal()
	}
}

// dueTime is the wall-clock time an action was due.
func (s *scheduler) dueTime(a *action) time.Time { return s.start.Add(a.due) }

// elapsed is the offset of now from the run's start.
func (s *scheduler) elapsed() time.Duration { return time.Since(s.start) }
