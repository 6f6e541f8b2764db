package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test at GOMAXPROCS p, so it has p−1 helper slots
// whatever the host's core count.
func withProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid returns the calling goroutine's ID, parsed from its stack
// header ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// settled waits for every helper slot to be released.
func settled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for busy.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helper slots still held after Each returned", busy.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEachCallsEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	for _, n := range []int{0, 1, 2, 7, 300} {
		counts := make([]atomic.Int32, n)
		Each(n, func(i int) {
			counts[i].Add(1)
			time.Sleep(10 * time.Microsecond)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
		settled(t)
	}
}

// TestPoolAllSlotsHeldRunsOnCaller holds every helper slot, as other
// detects would, and checks that a fan-out still completes, on its
// caller alone.
func TestPoolAllSlotsHeldRunsOnCaller(t *testing.T) {
	withProcs(t, 4)
	limit := slots()
	busy.Add(limit)
	defer busy.Add(-limit)
	caller := goid()
	var others atomic.Int32
	ran := make([]bool, 64)
	Each(len(ran), func(i int) {
		if goid() != caller {
			others.Add(1)
		}
		ran[i] = true
	})
	if c := others.Load(); c != 0 {
		t.Errorf("%d calls ran off the caller with every slot held", c)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("index %d never ran", i)
		}
	}
}

// TestPoolHelperPanicReraisedOnCaller parks the caller in index 0 until
// a helper enters index 1, which panics there. Each must re-raise that
// panic on its caller, after the helper has returned.
func TestPoolHelperPanicReraisedOnCaller(t *testing.T) {
	withProcs(t, 2)
	caller := goid()
	joined := make(chan struct{})
	var helperPanicked atomic.Bool
	got := func() (r any) {
		defer func() { r = recover() }()
		Each(8, func(i int) {
			switch i {
			case 0:
				select {
				case <-joined:
				case <-time.After(5 * time.Second):
				}
			case 1:
				helperPanicked.Store(goid() != caller)
				close(joined)
				panic("injected")
			}
		})
		return nil
	}()
	if !helperPanicked.Load() {
		t.Fatal("index 1 did not run on a helper while the caller was parked in index 0")
	}
	if got != "injected" {
		t.Fatalf("Each re-raised %v, want the helper's panic", got)
	}
	settled(t)
}

// TestPoolCallerPanicWaitsForHelpers: a panic on the caller still waits
// for the helpers it started. The caller starts at most one helper per
// index it claims, so while it sleeps in index 0 a single helper runs,
// and that helper is still parked when the caller panics at its next
// index.
func TestPoolCallerPanicWaitsForHelpers(t *testing.T) {
	withProcs(t, 4)
	caller := goid()
	var inHelper, after atomic.Int32
	release := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "caller" {
				t.Errorf("recovered %v, want the caller's panic", r)
			}
		}()
		Each(1000, func(i int) {
			if goid() == caller {
				if i > 0 {
					close(release)
					panic("caller")
				}
				// Let a helper start and park before panicking.
				time.Sleep(10 * time.Millisecond)
				return
			}
			if inHelper.Add(1) == 1 {
				<-release
				time.Sleep(5 * time.Millisecond)
				after.Add(1)
			}
		})
	}()
	if inHelper.Load() > 0 && after.Load() != 1 {
		t.Error("Each returned before its helper finished")
	}
	settled(t)
}

// TestPoolNestedFanOutFinishes runs eight concurrent two-level fan-outs
// (the shape of levels, then band chunks) with fewer slots than
// callers; every leaf must run exactly once and nothing may deadlock.
func TestPoolNestedFanOutFinishes(t *testing.T) {
	withProcs(t, 4)
	const callers, outer, inner = 8, 5, 40
	var leaves atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Each(outer, func(int) {
				Each(inner, func(int) {
					leaves.Add(1)
					runtime.Gosched()
				})
			})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("nested fan-outs did not finish")
	}
	if got, want := leaves.Load(), int64(callers*outer*inner); got != want {
		t.Fatalf("%d leaves ran, want %d", got, want)
	}
	settled(t)
}
