package obs

import (
	"testing"
	"time"
)

func TestRecorderLookup(t *testing.T) {
	r := NewRecorder(8)
	g := NewIDGen()
	id := g.Next()
	r.Record(&Record{ID: id, Endpoint: "detect", Status: 200, SeriesLen: 512})
	got, ok := r.Lookup(id)
	if !ok || got.SeriesLen != 512 || got.Endpoint != "detect" {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup(g.Next()); ok {
		t.Fatal("Lookup of unknown ID succeeded")
	}
}

func TestRecorderPinsErrors(t *testing.T) {
	r := NewRecorder(4)
	g := NewIDGen()
	errID := g.Next()
	r.Record(&Record{ID: errID, Status: 500, ErrorCode: "internal_error"})
	// Flush the recent ring with healthy traffic.
	for i := 0; i < 16; i++ {
		r.Record(&Record{ID: g.Next(), Status: 200})
	}
	got, ok := r.Lookup(errID)
	if !ok {
		t.Fatal("error record flushed despite pinning")
	}
	if got.ErrorCode != "internal_error" {
		t.Fatalf("record corrupted: %+v", got)
	}
}

func TestRecorderPinsDegraded(t *testing.T) {
	r := NewRecorder(4)
	g := NewIDGen()
	degID := g.Next()
	r.Record(&Record{ID: degID, Status: 200, DegradedCount: 2})
	for i := 0; i < 16; i++ {
		r.Record(&Record{ID: g.Next(), Status: 200})
	}
	if _, ok := r.Lookup(degID); !ok {
		t.Fatal("degraded record flushed despite pinning")
	}
}

func TestRecorderSnapshotNewestFirstNoDup(t *testing.T) {
	r := NewRecorder(4)
	g := NewIDGen()
	var ids []ID
	for i := 0; i < 6; i++ {
		id := g.Next()
		ids = append(ids, id)
		st := 200
		if i == 1 {
			st = 503 // pinned, survives the ring
		}
		r.Record(&Record{ID: id, Status: st, Time: time.Unix(int64(i), 0)})
	}
	snap := r.Snapshot(0, nil)
	seen := map[ID]int{}
	for _, rec := range snap {
		seen[rec.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("ID %s appears %d times in snapshot", id, n)
		}
	}
	// Newest 4 (recent ring) plus the pinned error record.
	if len(snap) != 5 {
		t.Fatalf("snapshot size = %d, want 5", len(snap))
	}
	if snap[0].ID != ids[5] {
		t.Fatal("snapshot not newest-first")
	}
	if _, ok := seen[ids[1]]; !ok {
		t.Fatal("pinned record missing from snapshot")
	}
	if got := r.Snapshot(2, nil); len(got) != 2 || got[0].ID != ids[5] {
		t.Fatalf("Snapshot(2) = %d records", len(got))
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
}

func TestRecorderOutcome(t *testing.T) {
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{Status: 200}, "ok"},
		{Record{Status: 404}, "error"},
		{Record{Status: 200, DegradedCount: 1}, "degraded"},
		{Record{Status: 200, ItemErrors: 1}, "degraded"},
	}
	for _, tc := range cases {
		if got := tc.rec.Outcome(); got != tc.want {
			t.Errorf("Outcome(%+v) = %q, want %q", tc.rec, got, tc.want)
		}
	}
	faulty := Record{Status: 200, FaultPoints: []string{"serve/worker"}}
	if !faulty.Interesting() {
		t.Error("fault-hit record not Interesting")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Ring[ID, Record]
	r.Add(ID{}, true, &Record{})
	if _, ok := r.Lookup(ID{}); ok {
		t.Fatal("nil recorder lookup succeeded")
	}
	if r.Snapshot(0, nil) != nil {
		t.Fatal("nil recorder snapshot non-nil")
	}
}

// TestRecorderCommitAllocFree pins the acceptance criterion: minting
// an ID, building a record and committing it to the recorder performs
// zero heap allocations — the bookkeeping the cached-result path pays.
func TestRecorderCommitAllocFree(t *testing.T) {
	r := NewRecorder(64)
	g := NewIDGen()
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		rec := Record{
			ID:            g.Next(),
			Time:          start,
			Endpoint:      "detect",
			Status:        200,
			Duration:      time.Millisecond,
			SeriesLen:     1024,
			OptionsDigest: 0xdeadbeef,
			Cached:        true,
		}
		r.Record(&rec)
	})
	if allocs != 0 {
		t.Fatalf("ID+Record commit allocates %v per run, want 0", allocs)
	}
}
