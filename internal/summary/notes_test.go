package summary

import (
	"testing"

	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/rules"
)

// TestNotesMatchCounters checks that every Summary Database decision
// noted on the caller's span matches the counter it mirrors, one
// operation at a time, across every route: scalar misses, hits and
// stale refills, incremental and window maintenance with both kinds of
// rebuild, the custom-result protocols (Register, Lookup, StoreCustom)
// and the recompute-all policy.
func TestNotesMatchCounters(t *testing.T) {
	db := NewDB(rules.NewManagementDB())
	db.WindowCapacity = 4
	tr := obs.NewTracer()
	db.SetTracer(tr)
	c := newColumn(1000, 7)
	scalar := func(fn string) func() {
		return func() {
			if _, err := db.Scalar(fn, "X", c.source()); err != nil {
				t.Fatal(err)
			}
		}
	}
	custom := func() (Result, error) { return ScalarOf(42), nil }
	register := func(fn string) func() {
		return func() {
			if _, err := db.Register(fn, []string{"X"}, custom); err != nil {
				t.Fatal(err)
			}
		}
	}
	// deleteMin moves every copy of X's minimum to the top of the range:
	// the min maintainer loses its last copy and rebuilds.
	deleteMin := func() {
		lo := c.xs[0]
		for _, x := range c.xs {
			lo = min(lo, x)
		}
		var ds []incr.Delta
		for i, x := range c.xs {
			if x == lo {
				ds = append(ds, c.update(i, 5000))
			}
		}
		db.OnUpdate("X", ds)
	}
	// shift moves the lowest 40 rows far above the rest, running the
	// 4-wide median window's pointer off its stored values.
	shift := func() {
		var ds []incr.Delta
		for i := 0; i < 40; i++ {
			ds = append(ds, c.update(i, 9000+float64(i)))
		}
		db.OnUpdate("X", ds)
	}
	ops := []struct {
		name string
		run  func()
	}{
		{"mean miss", scalar("mean")},
		{"mean hit", scalar("mean")},
		{"median miss", scalar("median")},
		{"min miss", scalar("min")},
		{"mode miss", scalar("mode")},
		{"update", func() { db.OnUpdate("X", []incr.Delta{c.update(1, 3), c.update(2, 997)}) }},
		{"mode stale refill", scalar("mode")},
		{"delete min", deleteMin},
		{"shift window", shift},
		{"register miss", register("note")},
		{"register hit", register("note")},
		{"invalidate", func() { db.Invalidate("X") }},
		{"register stale", register("note")},
		{"register builtin stale", register("mean")},
		{"lookup hit", func() { db.Lookup("note", "X") }},
		{"lookup miss", func() { db.Lookup("absent", "X") }},
		{"store custom", func() { db.StoreCustom("hist", []string{"X"}, ScalarOf(1)) }},
		{"recompute all", func() {
			db.SetPolicy(PolicyRecomputeAll)
			db.OnUpdate("X", []incr.Delta{c.update(3, 11)})
		}},
	}
	var total Counters
	for _, op := range ops {
		before := db.Counters()
		root := tr.Begin("op")
		op.run()
		root.End()
		after := db.Counters()
		n := obs.FoldSpan(root).Notes
		for _, f := range []struct {
			name   string
			note   obs.Note
			before int64
			after  int64
			total  *int64
		}{
			{"hits", obs.NoteHit, before.Hits, after.Hits, &total.Hits},
			{"misses", obs.NoteMiss, before.Misses, after.Misses, &total.Misses},
			{"stale refills", obs.NoteStaleRefill, before.StaleRefill, after.StaleRefill, &total.StaleRefill},
			{"incremental", obs.NoteIncremental, before.Incremental, after.Incremental, &total.Incremental},
			{"slides", obs.NoteSlide, before.Slides, after.Slides, &total.Slides},
			{"rebuilds", obs.NoteRebuild, before.Rebuilds, after.Rebuilds, &total.Rebuilds},
			{"recomputes", obs.NoteRecompute, before.Recomputes, after.Recomputes, &total.Recomputes},
		} {
			if got, want := n[f.note], f.after-f.before; got != want {
				t.Errorf("%s: %d %s noted, counters moved %d", op.name, got, f.name, want)
			}
			*f.total += f.after - f.before
		}
	}
	if total.Hits == 0 || total.Misses == 0 || total.StaleRefill == 0 || total.Incremental == 0 ||
		total.Slides == 0 || total.Rebuilds < 2 || total.Recomputes == 0 {
		t.Errorf("operations missed a route: %+v", total)
	}
}
