// Package par runs independent work items on the calling goroutine and
// whatever cores the process has idle.
//
// Every detect fans out twice: over its selected wavelet levels, and
// inside each level over the 64-frequency chunks of the robust
// periodogram's band. Both fan-outs go through Each, so they share one
// process-wide bound on helper goroutines however deeply they nest and
// however many detects run at once.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxProcs caps the cores one process fans out over, however many the
// host exposes: past this width the shared cursors and caches cost
// more than the extra cores return.
const maxProcs = 16

// busy counts the helper goroutines running in the process, over every
// Each call.
var busy atomic.Int32

// slots is how many helpers the process may run at once: one per
// usable core beyond the first, since every caller works too.
func slots() int32 {
	return int32(min(runtime.GOMAXPROCS(0), maxProcs) - 1)
}

// acquire claims a helper slot when one of limit is free.
func acquire(limit int32) bool {
	for {
		b := busy.Load()
		if b >= limit {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// Each calls fn(i) once for every i in [0, n) and returns when every
// call has returned. fn must be safe to call concurrently for
// different i.
//
// The caller claims indices off an atomic cursor. Before each call it
// starts one more helper, which claims off the same cursor, while
// unclaimed work is left and one of the process's
// min(GOMAXPROCS, 16) − 1 helper slots is free. Each waits only for
// the helpers it started, and they exit when the cursor runs out, so
// no goroutine outlives the call and no call waits on work that has
// not started: with every slot held, or at GOMAXPROCS=1, Each runs on
// its caller alone.
//
// A panic stops the claiming of further indices. A helper's panic is
// re-raised on the caller once every helper has returned; the
// caller's own panic propagates after the same wait.
func Each(n int, fn func(i int)) {
	f := &fanOut{n: n, fn: fn}
	limit := slots()
	finished := false
	defer func() {
		if !finished {
			f.stop.Store(true) // fn panicked on the caller
		}
		f.wg.Wait()
		if finished && f.recovered != nil {
			panic(f.recovered)
		}
	}()
	for i, ok := f.claim(); ok; i, ok = f.claim() {
		if int(f.next.Load()) < n && acquire(limit) {
			f.wg.Add(1)
			go f.helper()
		}
		fn(i)
	}
	finished = true
}

// fanOut is the state one Each call shares with its helpers.
type fanOut struct {
	n         int
	fn        func(i int)
	next      atomic.Int64
	stop      atomic.Bool
	wg        sync.WaitGroup
	first     sync.Once
	recovered any // the first helper panic
}

func (f *fanOut) claim() (int, bool) {
	if f.stop.Load() {
		return 0, false
	}
	i := int(f.next.Add(1) - 1)
	return i, i < f.n
}

// helper runs claimed indices until the cursor runs out or a panic
// stops the fan-out, then frees its slot.
func (f *fanOut) helper() {
	defer f.wg.Done()
	defer busy.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			f.stop.Store(true)
			f.first.Do(func() { f.recovered = r })
		}
	}()
	for i, ok := f.claim(); ok; i, ok = f.claim() {
		f.fn(i)
	}
}
