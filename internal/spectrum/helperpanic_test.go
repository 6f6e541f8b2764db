package spectrum_test

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"robustperiod/internal/core"
	"robustperiod/internal/spectrum"
)

// TestPoolHelperChunkPanicIsLevelPanic injects a panic into a band
// chunk that a helper goroutine solves. The helper must not crash the
// process: its fan-out re-raises the panic on the level's goroutine,
// and the detect ends with a contained level_panic.
func TestPoolHelperChunkPanicIsLevelPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one helper slot
	x := make([]float64, 1000)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/50) + 0.1*math.Sin(float64(i*i))
	}
	// One selected level over the whole band: the level fan-out has a
	// single index and starts no helper, so the band's chunk fan-out
	// gets the free slot. The caller claims chunk 0 first and parks in
	// it until chunk 1 has started, so chunk 1 runs on the helper.
	opts := core.Options{EnergyShare: 1e-9, FullRobustBand: true}
	var entered0, left0, fired, onHelper atomic.Bool
	parked, joined := make(chan struct{}), make(chan struct{})
	restore := spectrum.SetChunkHook(func(c int) {
		switch {
		case c == 0 && entered0.CompareAndSwap(false, true):
			close(parked)
			select {
			case <-joined:
			case <-time.After(5 * time.Second):
			}
			left0.Store(true)
		case c == 1 && fired.CompareAndSwap(false, true):
			select {
			case <-parked:
			case <-time.After(5 * time.Second):
			}
			onHelper.Store(!left0.Load())
			close(joined)
			panic("injected chunk panic")
		}
	})
	defer restore()

	res, err := core.Detect(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !onHelper.Load() {
		t.Fatal("chunk 1 did not run on a helper while the caller was parked in chunk 0")
	}
	for _, d := range res.Degraded {
		if d.Reason == core.ReasonLevelPanic {
			return
		}
	}
	t.Fatalf("Degraded = %v, want %s", res.Degraded, core.ReasonLevelPanic)
}
