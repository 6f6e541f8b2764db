package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// arm installs a plan for the duration of the test; the global
// registry is restored on cleanup so tests cannot leak faults.
func arm(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	t.Cleanup(Disable)
	return p
}

func TestDisabledCheckIsFreeAndAllocationless(t *testing.T) {
	Disable()
	if err := Check(PointSpectrumSolver); err != nil {
		t.Fatalf("disabled Check returned %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if Check(PointSpectrumSolver) != nil {
			t.Fail()
		}
	}); n != 0 {
		t.Errorf("disabled Check allocates %v objects/op, want 0", n)
	}
}

func TestErrorAction(t *testing.T) {
	arm(t, "spectrum/solver:error")
	err := Check(PointSpectrumSolver)
	if err == nil {
		t.Fatal("armed point did not fire")
	}
	if !IsInjected(err) {
		t.Errorf("err %v not recognized as injected", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Point != PointSpectrumSolver {
		t.Errorf("wrong point: %v", err)
	}
	// Unarmed points stay inert under an armed plan.
	if err := Check(PointCoreLevel); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	arm(t, "core/level:panic")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic action did not panic")
		}
		if ie, ok := r.(*InjectedError); !ok || ie.Point != PointCoreLevel {
			t.Errorf("panic value = %v", r)
		}
	}()
	Check(PointCoreLevel) //nolint:errcheck // panics
}

func TestDelayAction(t *testing.T) {
	arm(t, "serve/worker:delay=30ms")
	start := time.Now()
	if err := Check(PointServeWorker); err != nil {
		t.Fatalf("delay action returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delay action slept %v, want >= 30ms", d)
	}
}

// TestCheckDoneDelayEndsWithDone: a delay at a point bounded by a
// cancellation signal ends when the signal fires, as the slow work it
// stands for would.
func TestCheckDoneDelayEndsWithDone(t *testing.T) {
	arm(t, "spectrum/stall:delay=1h")
	done := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(done) })
	start := time.Now()
	if err := CheckDone(PointSpectrumStall, done); err != nil {
		t.Fatalf("delay action returned error %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond || d > 10*time.Second {
		t.Errorf("delay bounded by a 20ms signal lasted %v", d)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func() []bool {
		p := MustParse("spectrum/solver:error:p=0.5:seed=42")
		Enable(p)
		defer Disable()
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check(PointSpectrumSolver) != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire sequence diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("p=0.5 fired %d/%d times — probability gate inert", fires, len(a))
	}
}

func TestAfterAndTimesWindows(t *testing.T) {
	arm(t, "serve/cache:error:after=2:times=3")
	var fired []int
	for i := 0; i < 10; i++ {
		if Check(PointServeCache) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{2, 3, 4} // skips hits 0,1; fires exactly 3 times
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"spectrum/solver",                 // no action
		"spectrum/solver:p=0.5",           // modifiers only
		"spectrum/solver:delay",           // delay without duration
		"spectrum/solver:delay=squid",     // unparseable duration
		"spectrum/solver:error:p=2",       // probability out of range
		"spectrum/solver:error:p=0",       // zero probability
		"spectrum/solver:error:times=-1",  // negative times
		"spectrum/solver:error:wat",       // unknown directive
		"a:error,a:panic",                 // duplicate point
		"spectrum/solver:error:seed=pony", // bad seed
		"spectrum/solver:error:after=-3",  // negative after
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
	if p, err := Parse("  "); err != nil || p != nil {
		t.Errorf("blank spec: plan=%v err=%v, want nil,nil", p, err)
	}
}

func TestConcurrentChecksAreRaceFree(t *testing.T) {
	arm(t, "serve/worker:error:p=0.3:seed=7")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Check(PointServeWorker) //nolint:errcheck // firing or not both fine
			}
		}()
	}
	wg.Wait()
	stats := active.Load().Stats()
	if s := stats[PointServeWorker]; s[0] != 8*200 {
		t.Errorf("hits = %d, want %d", s[0], 8*200)
	}
	if Describe() == "" {
		t.Error("Describe empty while armed")
	}
}
