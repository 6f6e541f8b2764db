// Fixture: lockdiscipline proves locks are released on every path,
// kinds match, the acquisition order follows the (fixture) catalog,
// and catalogued packages keep every mutex ranked.
package lockdiscipline

import "sync"

// Outer ranks before Inner in the fixture lock-order catalog.
type Outer struct{ mu sync.Mutex }

// Inner ranks after Outer.
type Inner struct{ mu sync.RWMutex }

// Stray's mutex is deliberately missing from the catalog. // want: coverage
type Stray struct{ mu sync.Mutex }

var globalMu sync.Mutex // ranked in the fixture catalog: no finding

func deferred(o *Outer) {
	o.mu.Lock()
	defer o.mu.Unlock()
}

func perBranch(o *Outer, b bool) {
	o.mu.Lock()
	if b {
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
}

func leaky(o *Outer, b bool) {
	o.mu.Lock() // want: not released on the early-return path
	if b {
		return
	}
	o.mu.Unlock()
}

func kindMismatch(i *Inner) {
	i.mu.RLock() // want: RLock released with Unlock
	i.mu.Unlock()
}

func nested(o *Outer, i *Inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i.mu.RLock() // catalog order Outer -> Inner: no finding
	defer i.mu.RUnlock()
}

func inverted(o *Outer, i *Inner) {
	i.mu.RLock()
	defer i.mu.RUnlock()
	o.mu.Lock() // want: Inner held while acquiring Outer
	defer o.mu.Unlock()
}

func recursive(o *Outer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	relock(o) // want: callee re-acquires the held class
}

func relock(o *Outer) {
	o.mu.Lock()
	defer o.mu.Unlock()
}

func handoff(o *Outer) {
	o.mu.Lock()
	release(o) // release via the callee's summary: no finding
}

func release(o *Outer) {
	o.mu.Unlock()
}

func global(o *Outer) {
	globalMu.Lock()
	defer globalMu.Unlock()
	o.mu.Lock() // want: globalMu ranks after Outer
	defer o.mu.Unlock()
}

// spawnUnderLock starts relock on another goroutine while holding
// Inner.mu. The goroutine does not extend this stack's hold chain, so
// this is no inversion, and the summary acquires only Inner.mu.
func spawnUnderLock(o *Outer, i *Inner) {
	i.mu.RLock()
	defer i.mu.RUnlock()
	go relock(o)
}
