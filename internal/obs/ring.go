package obs

import "sync"

// Ring is a bounded flight recorder: a ring of the most recent entries
// plus a second ring that keeps only pinned ones, so a burst of healthy
// traffic cannot flush the one entry worth debugging. Entries are found
// by key. Add is a single mutex-guarded struct copy into a preallocated
// slot: no allocation, no channel, cheap enough for the cached-result
// path. The request records behind /debug/requests (keyed by request
// ID) and the span trees behind /debug/traces (keyed by trace ID) both
// live in one. A nil *Ring holds nothing.
type Ring[K comparable, T any] struct {
	mu             sync.Mutex
	recent, pinned slots[K, T]
}

// slots is one fixed-capacity ring; head is the next slot written.
type slots[K comparable, T any] struct {
	keys    []K
	vals    []T
	head, n int
}

// NewRing builds a ring retaining the last size entries, plus up to
// size pinned ones. size <= 0 selects the default of 256.
func NewRing[K comparable, T any](size int) *Ring[K, T] {
	if size <= 0 {
		size = 256
	}
	return &Ring[K, T]{
		recent: slots[K, T]{keys: make([]K, size), vals: make([]T, size)},
		pinned: slots[K, T]{keys: make([]K, size), vals: make([]T, size)},
	}
}

func (s *slots[K, T]) put(key K, v *T) {
	s.keys[s.head], s.vals[s.head] = key, *v
	s.head = (s.head + 1) % len(s.vals)
	s.n = min(s.n+1, len(s.vals))
}

// at returns the slot index of the i-th newest entry, i in [0, n).
func (s *slots[K, T]) at(i int) int { return (s.head - 1 - i + len(s.vals)) % len(s.vals) }

// Add retains *v under key, overwriting the oldest entry when the ring
// is full, and copies it into the pinned ring too when pin is set. The
// caller takes the pin decision, so v does not escape.
func (r *Ring[K, T]) Add(key K, pin bool, v *T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recent.put(key, v)
	if pin {
		r.pinned.put(key, v)
	}
	r.mu.Unlock()
}

// Lookup returns the newest entry stored under key, searching the
// pinned ring first, since a pinned entry may already have left the
// recent one.
func (r *Ring[K, T]) Lookup(key K) (v T, ok bool) {
	if r == nil {
		return v, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range [...]*slots[K, T]{&r.pinned, &r.recent} {
		for i := 0; i < s.n; i++ {
			if j := s.at(i); s.keys[j] == key {
				return s.vals[j], true
			}
		}
	}
	return v, false
}

// Snapshot returns newest first the entries that match (all when match
// is nil), at most limit of them (all when limit <= 0): the recent
// ring, then the pinned entries it no longer holds. A key is listed
// once, as its newest entry, whether or not that entry matches. match
// runs after the lock is released.
func (r *Ring[K, T]) Snapshot(limit int, match func(*T) bool) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	seen := make(map[K]bool, r.recent.n+r.pinned.n)
	out := make([]T, 0, r.recent.n+r.pinned.n)
	for _, s := range [...]*slots[K, T]{&r.recent, &r.pinned} {
		for i := 0; i < s.n; i++ {
			if j := s.at(i); !seen[s.keys[j]] {
				seen[s.keys[j]] = true
				out = append(out, s.vals[j])
			}
		}
	}
	r.mu.Unlock()
	kept := out[:0]
	for i := range out {
		if limit > 0 && len(kept) == limit {
			break
		}
		if match == nil || match(&out[i]) {
			kept = append(kept, out[i])
		}
	}
	return kept
}

// Len reports how many distinct keys the ring holds.
func (r *Ring[K, T]) Len() int { return len(r.Snapshot(0, nil)) }
