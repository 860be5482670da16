package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/shard"
	"statdb/internal/storage"
	"statdb/internal/view"
	"statdb/internal/workload"
)

// deltaRecord is the counter-delta oracle: the way event records were
// built before they came from the statement's own spans. It diffs two
// system-wide snapshots taken around one statement, which is exact only
// while nothing else runs, and so serves here, in a single-session
// test, as the reference the span-derived record must reproduce.
func deltaRecord(before, after obs.Snapshot, root *obs.Span) obs.QueryRecord {
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	var rec obs.QueryRecord
	rec.Rows = scanRows(root)
	rec.CacheHits = delta(obs.MSummaryHits)
	rec.CacheMiss = delta(obs.MSummaryMisses) + delta(obs.MSummaryStaleRefill)
	switch {
	case delta(obs.MSummaryIncremental) > 0 || delta(obs.MSummarySlides) > 0:
		rec.Strategy = "incremental"
	case delta(obs.MSummaryRecomputes) > 0 || delta(obs.MSummaryMisses) > 0:
		rec.Strategy = "recompute"
	case rec.CacheHits > 0:
		rec.Strategy = "cached"
	}
	switch {
	case delta(obs.MSummaryRecomputeParallel) > 0 || delta(obs.MExecRunsParallel) > 0:
		rec.Engine = "parallel"
	case delta(obs.MSummaryRecomputeSerial) > 0 || delta(obs.MExecRunsSerial) > 0:
		rec.Engine = "serial"
	}
	return rec
}

// scanRows sums the rows attribute over every "scan" span in the tree.
func scanRows(s *obs.Span) int64 {
	if s == nil {
		return 0
	}
	var n int64
	if s.Name() == "scan" {
		for _, a := range s.Attrs() {
			if a.Key == "rows" {
				var v int64
				fmt.Sscanf(a.Value, "%d", &v)
				n += v
			}
		}
	}
	for _, c := range s.Children() {
		n += scanRows(c)
	}
	return n
}

// recordFixture is a DBMS with every backing the record matrix needs:
// mv (10240 microdata rows on a transposed store, engine width 4), gv
// (an RLE grade column the planner folds run by run), sv (a sharded
// copy of the microdata) and the tiny raw file whose selection runs the
// pool on a single chunk. Every statement is logged.
func recordFixture(t *testing.T) (*core.DBMS, *Executor, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	d := core.New()
	d.SetParallelism(4)
	grades := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "GRADE", Kind: dataset.KindInt, Summarizable: true},
	))
	for i := 0; i < 10240; i++ {
		if err := grades.Append(dataset.Row{dataset.Int(int64(i / 400 * 25))}); err != nil {
			t.Fatal(err)
		}
	}
	for name, ds := range map[string]*dataset.Dataset{
		"micro":  workload.Microdata(10240, 12),
		"tiny":   workload.Microdata(100, 3),
		"grades": grades,
	} {
		if err := d.LoadRaw(name, ds); err != nil {
			t.Fatal(err)
		}
	}
	var out, logBuf bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	log, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(log)
	for _, stmt := range []string{
		"materialize mv from micro project SEX,RACE,AGE,SALARY",
		"materialize gv from grades project GRADE",
		"materialize sv from micro project AGE,SALARY",
	} {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"mv", "gv"} {
		v, err := e.Analyst.View(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ShardView("sv", shard.Config{Shards: 4, PoolPages: 4}); err != nil {
		t.Fatal(err)
	}
	return d, e, &out, &logBuf
}

// TestRecordMatchesCounterDeltas runs one single-session statement
// matrix through a logged executor and checks every record against the
// counter-delta oracle: Summary DB misses, hits and stale refills, a
// run-aware fold, incremental and median-window maintenance with a
// maintainer rebuild, undo, the custom-result cache (histogram,
// correlate), describe, frequencies, crosstab, a sharded scatter,
// regress, pool runs outside any fold (serial and parallel selections),
// explain/profile wrappers, a budget breach and a failing statement.
func TestRecordMatchesCounterDeltas(t *testing.T) {
	d, e, out, logBuf := recordFixture(t)
	type step struct {
		stmt   string
		budget int64 // per-statement tick ceiling, 0 = unlimited
		setup  func() string
	}
	// The rebuild step deletes every copy of SALARY's minimum, which the
	// min maintainer cannot absorb: it rebuilds with a full pass.
	minUpdate := func() string {
		s := out.String()
		i := strings.LastIndex(s, "min(SALARY) = ")
		var lo float64
		if _, err := fmt.Sscanf(s[i:], "min(SALARY) = %g", &lo); err != nil {
			t.Fatalf("parse min from %q: %v", s[i:], err)
		}
		return fmt.Sprintf("update mv set SALARY = null where SALARY < %.3f", lo+1)
	}
	steps := []step{
		{stmt: "compute mean SALARY on mv"},   // miss, parallel fold over the store
		{stmt: "compute mean SALARY on mv"},   // hit
		{stmt: "compute median SALARY on mv"}, // miss, installs a window
		{stmt: "compute mode SALARY on mv"},   // miss, invalidate strategy
		{stmt: "compute min SALARY on mv"},    // miss, installs a maintainer
		{stmt: "update mv set SALARY = 12345 where AGE = 30"},
		{stmt: "compute mode SALARY on mv"},   // stale refill
		{stmt: "compute median SALARY on mv"}, // hit on the maintained window
		{setup: minUpdate},                    // maintainer rebuild
		{stmt: "undo mv"},
		{stmt: "compute mean GRADE on gv"}, // run-aware fold
		{stmt: "compute mean GRADE on gv"},
		{stmt: "describe AGE on mv"},
		{stmt: "describe AGE on mv"},
		{stmt: "frequencies SEX on mv"},
		{stmt: "crosstab SEX RACE on mv"},
		{stmt: "histogram AGE on mv bins 8"}, // Lookup miss + StoreCustom
		{stmt: "histogram AGE on mv bins 8"}, // Lookup hit
		{stmt: "correlate AGE SALARY on mv"},
		{stmt: "compute mean SALARY on sv"}, // sharded scatter-gather
		{stmt: "compute median SALARY on sv"},
		{stmt: "regress SALARY on AGE over mv"},
		{stmt: "materialize big from micro where AGE > 40 project AGE,SALARY"}, // parallel pool run
		{stmt: "materialize small from tiny where AGE > 40 project AGE"},       // one chunk: serial pool run
		{stmt: "explain compute q1 SALARY on mv"},
		{stmt: "profile compute q3 SALARY on mv"},
		{stmt: "compute variance SALARY on mv", budget: 100}, // breach
		{stmt: "compute mean NOPE on mv"},                    // error
	}
	seen := map[string]bool{}
	for _, st := range steps {
		stmt := st.stmt
		if st.setup != nil {
			stmt = st.setup()
		}
		d.SetQueryBudget(st.budget, 0)
		before := d.Metrics()
		logBuf.Reset()
		runErr := e.Run(stmt)
		after := d.Metrics()
		roots := d.Tracer().Recent()
		root := roots[len(roots)-1]

		var ev obs.Event
		if err := json.Unmarshal(logBuf.Bytes(), &ev); err != nil || ev.Query == nil {
			t.Fatalf("%s: no single query record in %q: %v", stmt, logBuf.String(), err)
		}
		got := *ev.Query
		want := deltaRecord(before, after, root)
		if got.CacheHits != want.CacheHits || got.CacheMiss != want.CacheMiss ||
			got.Strategy != want.Strategy || got.Engine != want.Engine || got.Rows != want.Rows {
			t.Errorf("%s:\n got  hits=%d miss=%d strategy=%q engine=%q rows=%d\n want hits=%d miss=%d strategy=%q engine=%q rows=%d",
				stmt, got.CacheHits, got.CacheMiss, got.Strategy, got.Engine, got.Rows,
				want.CacheHits, want.CacheMiss, want.Strategy, want.Engine, want.Rows)
		}
		if got.TotalTicks != root.Total() {
			t.Errorf("%s: total_ticks %d, root total %d", stmt, got.TotalTicks, root.Total())
		}

		// Coverage: the matrix must actually exercise every route.
		seen["strategy="+want.Strategy] = true
		seen["engine="+want.Engine] = true
		for _, name := range []string{obs.MSummaryStaleRefill, obs.MSummaryRebuilds, obs.MSummarySlides,
			obs.MSummaryIncremental, obs.MExecRunStrategyHits, obs.MShardScatters} {
			if after.Counters[name] > before.Counters[name] {
				seen[name] = true
			}
		}
		var be *obs.BudgetError
		if errors.As(runErr, &be) && got.Budget != "" {
			seen["budget"] = true
		} else if runErr != nil && got.Err != "" {
			seen["error"] = true
		} else if runErr != nil {
			t.Errorf("%s: %v", stmt, runErr)
		}
	}
	for _, k := range []string{"strategy=cached", "strategy=recompute", "strategy=incremental",
		"engine=serial", "engine=parallel", obs.MSummaryStaleRefill, obs.MSummaryRebuilds,
		obs.MSummarySlides, obs.MSummaryIncremental, obs.MExecRunStrategyHits, obs.MShardScatters,
		"budget", "error"} {
		if !seen[k] {
			t.Errorf("statement matrix never exercised %s", k)
		}
	}
}

// cachedFixture is a logged executor over stored views v0..v{n-1} (each
// selecting a different row range, so none duplicates another), each on
// a transposed store with its own buffer pool and metrics registry, with
// `compute mean AGE on v0` already cached.
func cachedFixture(tb testing.TB, stored int) *Executor {
	tb.Helper()
	d := core.New()
	if err := d.LoadRaw("micro", workload.Microdata(2048, 5)); err != nil {
		tb.Fatal(err)
	}
	e := NewExecutor(d, "analyst", io.Discard)
	log, err := obs.NewEventLog(obs.EventLogConfig{W: io.Discard})
	if err != nil {
		tb.Fatal(err)
	}
	e.SetEventLog(log)
	for i := 0; i < stored; i++ {
		name := fmt.Sprintf("v%d", i)
		stmt := fmt.Sprintf("materialize %s from micro where ID >= %d project AGE,SALARY", name, i)
		if err := e.Run(stmt); err != nil {
			tb.Fatal(err)
		}
		v, err := e.Analyst.View(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), 8); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Run(cachedStmt); err != nil {
		tb.Fatal(err)
	}
	return e
}

const cachedStmt = "compute mean AGE on v0"

// loggedAllocSlack is how many allocations the event record may add to
// a cached statement: the record itself, its JSON encoding and the
// log's line. Measured at 3 (37 logged against 34 unlogged) with go1.24
// on linux/amd64; one more is allowed for encoder drift across Go
// releases.
const loggedAllocSlack = 4

// TestLoggedCachedComputeAllocs is the deterministic cost guard on the
// statement path: a logged cache hit allocates the same with 1 stored
// view as with 8 (the record no longer merges every view's registry),
// and only a small constant more than the same hit unlogged. CI runs it
// in the benchmark-smoke step, outside the -race suite.
func TestLoggedCachedComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	run := func(e *Executor) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := e.Run(cachedStmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := cachedFixture(t, 1)
	logged := run(one)
	if eight := run(cachedFixture(t, 8)); eight != logged {
		t.Errorf("logged cached compute: %v allocs with 8 stored views, %v with 1", eight, logged)
	}
	one.SetEventLog(nil)
	unlogged := run(one)
	if logged > unlogged+loggedAllocSlack {
		t.Errorf("logged cached compute: %v allocs, unlogged %v; the record may add at most %d",
			logged, unlogged, loggedAllocSlack)
	}
	t.Logf("cached compute: %v allocs logged, %v unlogged", logged, unlogged)
}

func benchCached(b *testing.B, logged bool) {
	e := cachedFixture(b, 1)
	if !logged {
		e.SetEventLog(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cachedStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeCachedLogged is one Summary DB hit with the event log
// attached, as `statdb serve` always runs.
func BenchmarkComputeCachedLogged(b *testing.B) { benchCached(b, true) }

// BenchmarkComputeCachedUnlogged is the same hit with no event log.
func BenchmarkComputeCachedUnlogged(b *testing.B) { benchCached(b, false) }
