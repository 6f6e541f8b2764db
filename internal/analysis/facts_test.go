package analysis

import (
	"path/filepath"
	"sort"
	"testing"
)

// loadFixtureFacts loads one fixture package and computes module facts
// over it alone.
func loadFixtureFacts(t *testing.T, fixture string) (*Package, *Facts) {
	t.Helper()
	l := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "fixture/"+fixture)
	if err != nil {
		t.Fatalf("loading %s fixture: %v", fixture, err)
	}
	return pkg, ComputeFacts([]*Package{pkg})
}

// factsByDisplay finds a function summary by its display name.
func factsByDisplay(t *testing.T, facts *Facts, display string) *FuncFacts {
	t.Helper()
	for _, ff := range facts.Funcs {
		if ff.Display == display {
			return ff
		}
	}
	t.Fatalf("no summary for %s; have %d summaries", display, len(facts.Funcs))
	return nil
}

func TestFactsLockSummaries(t *testing.T) {
	_, facts := loadFixtureFacts(t, "lockdiscipline")

	relock := factsByDisplay(t, facts, "lockdiscipline.relock")
	if !relock.Acquires["lockdiscipline.Outer.mu"] {
		t.Errorf("relock should directly acquire lockdiscipline.Outer.mu; got %v", sortedKeys(relock.Acquires))
	}

	// Transitive: recursive() acquires Outer.mu both directly and via
	// its call to relock — the fixpoint must fold the callee in.
	recursive := factsByDisplay(t, facts, "lockdiscipline.recursive")
	if !recursive.Acquires["lockdiscipline.Outer.mu"] {
		t.Errorf("recursive should transitively acquire lockdiscipline.Outer.mu; got %v", sortedKeys(recursive.Acquires))
	}

	release := factsByDisplay(t, facts, "lockdiscipline.release")
	if !release.Releases["lockdiscipline.Outer.mu"] {
		t.Errorf("release should be an unlock helper for lockdiscipline.Outer.mu; got %v", sortedKeys(release.Releases))
	}
}

func TestFactsGoSpawnDoesNotPropagate(t *testing.T) {
	_, facts := loadFixtureFacts(t, "lockdiscipline")

	// spawnUnderLock starts relock in a go statement: the callee runs
	// on another stack, so its acquisition must not flow back into the
	// spawner's summary.
	spawner := factsByDisplay(t, facts, "lockdiscipline.spawnUnderLock")
	if got := sortedKeys(spawner.Acquires); len(got) != 1 || got[0] != "lockdiscipline.Inner.mu" {
		t.Errorf("spawnUnderLock should acquire only lockdiscipline.Inner.mu; got %v", got)
	}
}

// sortedKeys lists a set's keys in stable order for messages.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
