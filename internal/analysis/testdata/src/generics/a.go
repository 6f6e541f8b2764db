// Fixture: type-parameterized code type-checks and runs through every
// analyzer — lockdiscipline included — without findings or panics.
package generics

import (
	"context"
	"sync"
)

// Cache is a generic guarded map; its mutex is ranked in the fixture
// lock-order catalog.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func NewCache[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]V)}
}

func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// Map exercises generic free functions with closures and appends.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Watch exercises a go statement inside a generic function: the
// spawned closure flows through the CFG and summary layers.
func Watch[T any](ctx context.Context, ch chan T) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-ch:
			}
		}
	}()
}

// Reduce exercises generic instantiation calls inside the package.
func Reduce[T any](xs []T, acc T, f func(T, T) T) T {
	for _, x := range xs {
		acc = f(acc, x)
	}
	return acc
}

var _ = Map[int, int]
