package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func keyOf(seed float64) cacheKey {
	return requestKey([]float64{seed, seed + 1, seed + 2}, []byte("null"))
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newResultCache(2)
	ra, rb, rc := &answer{}, &answer{}, &answer{}
	ka, kb, kc := keyOf(1), keyOf(2), keyOf(3)

	c.add(ka, ra)
	c.add(kb, rb)
	if got, ok := c.get(ka); !ok || got != ra {
		t.Fatal("a missing after insert")
	}
	// a was just used, so adding c must evict b.
	c.add(kc, rc)
	if _, ok := c.get(kb); ok {
		t.Error("b survived eviction although it was LRU")
	}
	if _, ok := c.get(ka); !ok {
		t.Error("a evicted although it was MRU")
	}
	if _, ok := c.get(kc); !ok {
		t.Error("c missing right after insert")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestLRURefreshExisting(t *testing.T) {
	c := newResultCache(2)
	k := keyOf(4)
	r1 := &answer{}
	r2 := &answer{Periods: []int{7}}
	c.add(k, r1)
	c.add(k, r2)
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (re-add must not duplicate)", c.len())
	}
	if got, _ := c.get(k); got != r2 {
		t.Error("re-add did not replace the value")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *resultCache // CacheSize < 0 path
	if _, ok := c.get(keyOf(5)); ok {
		t.Error("nil cache returned a hit")
	}
	c.add(keyOf(5), &answer{}) // must not panic
	if c.len() != 0 {
		t.Error("nil cache has entries")
	}
}

func TestRequestKeyDistinguishesOptionsAndSeries(t *testing.T) {
	s1 := []float64{1, 2, 3}
	s2 := []float64{1, 2, 4}
	if requestKey(s1, []byte("null")) == requestKey(s2, []byte("null")) {
		t.Error("different series collide")
	}
	if requestKey(s1, []byte("null")) == requestKey(s1, []byte(`{"alpha":0.05}`)) {
		t.Error("different options collide")
	}
	if requestKey(s1, []byte("null")) != requestKey([]float64{1, 2, 3}, []byte("null")) {
		t.Error("identical requests do not collide")
	}
}

func TestWorkerPoolRunsEverythingOnce(t *testing.T) {
	p := newWorkerPool(4, 8)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.submit(context.Background(), func() {
			defer wg.Done()
			ran.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if ran.Load() != 100 {
		t.Errorf("ran %d jobs, want 100", ran.Load())
	}
	p.close()
	if err := p.submit(context.Background(), func() {}); err != errPoolClosed {
		t.Errorf("submit after close = %v, want errPoolClosed", err)
	}
	p.close() // second close must be a no-op
}

func TestWorkerPoolSubmitHonorsContext(t *testing.T) {
	// One worker stuck on a slow job plus a full queue: submit must
	// give up when the caller's context expires, not block forever.
	p := newWorkerPool(1, 1)
	defer p.close()
	release := make(chan struct{})
	if err := p.submit(context.Background(), func() { <-release }); err != nil {
		t.Fatal(err)
	}
	if err := p.submit(context.Background(), func() {}); err != nil {
		t.Fatal(err) // fills the queue
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.submit(ctx, func() {}); err != context.DeadlineExceeded {
		t.Errorf("submit on full queue = %v, want DeadlineExceeded", err)
	}
	close(release)
}
