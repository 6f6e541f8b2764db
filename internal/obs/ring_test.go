package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// ringEntry carries its key three ways, so a torn copy shows.
type ringEntry struct {
	Key  int
	Sq   int
	Name string
}

func newRingEntry(k int) ringEntry { return ringEntry{Key: k, Sq: k * k, Name: strconv.Itoa(k)} }

func (e *ringEntry) intact() bool {
	return e.Sq == e.Key*e.Key && e.Name == strconv.Itoa(e.Key)
}

// TestRingChaosConcurrent drives one ring from 8 writers while readers
// look entries up and take snapshots: every entry read back is intact,
// and no snapshot lists a key twice. Run it under -race.
func TestRingChaosConcurrent(t *testing.T) {
	const writers, perWriter, size = 8, 2000, 16
	r := NewRing[int, ringEntry](size)
	pinned := func(k int) bool { return k%7 == 0 }
	var wg sync.WaitGroup
	var done atomic.Bool
	var last atomic.Int64
	check := func(snap []ringEntry) {
		seen := map[int]bool{}
		for i := range snap {
			if !snap[i].intact() {
				t.Errorf("torn entry %+v", snap[i])
			}
			if seen[snap[i].Key] {
				t.Errorf("key %d listed twice", snap[i].Key)
			}
			seen[snap[i].Key] = true
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				e := newRingEntry(k)
				r.Add(k, pinned(k), &e)
				last.Store(int64(k))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				if e, ok := r.Lookup(int(last.Load())); ok && !e.intact() {
					t.Errorf("torn lookup %+v", e)
				}
				check(r.Snapshot(0, nil))
				check(r.Snapshot(4, func(e *ringEntry) bool { return pinned(e.Key) }))
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()

	snap := r.Snapshot(0, nil)
	check(snap)
	if len(snap) < size || len(snap) > 2*size {
		t.Fatalf("ring holds %d entries, want between %d and %d", len(snap), size, 2*size)
	}
	for i := range snap {
		if got, ok := r.Lookup(snap[i].Key); !ok || got != snap[i] {
			t.Fatalf("Lookup(%d) = %+v, %v; snapshot has %+v", snap[i].Key, got, ok, snap[i])
		}
	}
}
