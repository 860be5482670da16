package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/stats"
	"statdb/internal/storage"
	"statdb/internal/summary"
	"statdb/internal/view"
	"statdb/internal/workload"
)

// Sizes shared by the workloads. The raw file is the same on all three;
// scan's pool holds 64 of the ~400 pages a numeric column spans, and
// clean's 16 frames hold under half of its ~40-page SALARY column.
const (
	dataRows    = 200000
	cleanRows   = 20000
	scanFrames  = 64
	cleanFrames = 16
	cleanBlock  = 320 // rows one clean cycle marks invalid, 1.6% of cv
	analyst     = "analyst"
)

// builtins are the Summary Database's scalar functions (Section 3.2).
var builtins = []string{"count", "sum", "mean", "variance", "sd", "min", "max", "median", "q1", "q3", "mode", "unique"}

// op is one unit of closed-loop client work: statements run back to
// back, each with the verb it must dispatch as and the exact output the
// oracle expects. replay re-runs the op's layer entry points with the
// same arguments, leaving the view as the op left it; it runs only in
// the traced phase, outside the op's root span.
type op struct {
	stmts  []string
	verbs  []string
	spans  []string // statement span names, "query.<verb>"
	want   []string
	replay func() error
}

// session is one booted workload: the engine, the executor the client
// talks to, the view the ops target, and the op deck.
type session struct {
	name string
	d    *core.DBMS
	e    *query.Executor
	v    *view.View
	tr   *tracer
	outs []bytes.Buffer
	ops  []op
	// countOps is the fixed op count of the traced run's phases, so its
	// count metrics repeat exactly for a seed.
	countOps int
	// guard, when set, checks from counter deltas over n ops that the
	// workload stayed in its single class of work.
	guard func(before, after obs.Snapshot, n int) error
	// routes, when set, is the per-op Summary DB route signature that
	// must be identical for every op (clean).
	routes func() summary.Counters
	// post, when set, checks the view after a phase (clean: describe
	// after the last undo equals the pre-update describe).
	post func() error
}

// setupTimes are the wall times of the four set-up steps.
type setupTimes struct {
	generate, materialize, attach, warm time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.materialize + t.attach + t.warm
}

var workloadNames = []string{"explore", "scan", "clean"}

// setup boots workload name on data generated from seed and returns the
// session with its op deck built from an oracle over the generated data.
// Only the four timed steps count toward set-up time; the oracle is the
// benchmark's own work.
func setup(name string, seed int64, tr *tracer) (*session, *dataset.Dataset, setupTimes, error) {
	var st setupTimes
	viewName, mat, frames := "mv", "materialize mv from micro project SEX,RACE,AGE,SALARY", scanFrames
	rows, attrs := dataRows, 4
	switch name {
	case "explore", "scan":
	case "clean":
		viewName, mat, frames = "cv", "materialize cv from micro where ID < 20000 project ID,SEX,RACE,AGE,SALARY", cleanFrames
		rows, attrs = cleanRows, 5
	default:
		return nil, nil, st, fmt.Errorf("unknown workload %q (want explore, scan or clean)", name)
	}

	t0 := time.Now()
	ds := workload.Microdata(dataRows, seed)
	t1 := time.Now()
	d := core.New()
	if err := d.LoadRaw("micro", ds); err != nil {
		return nil, nil, st, fmt.Errorf("load raw file: %w", err)
	}
	s := &session{name: name, d: d, tr: tr, outs: make([]bytes.Buffer, 4)}
	s.e = query.NewExecutor(d, analyst, &s.outs[0])
	if err := s.e.Run(mat); err != nil {
		return nil, nil, st, fmt.Errorf("%s: %w", mat, err)
	}
	if got, want := s.outs[0].String(), fmt.Sprintf("view %s materialized: %d rows, %d attributes\n", viewName, rows, attrs); got != want {
		return nil, nil, st, fmt.Errorf("%s: got %q, want %q", mat, got, want)
	}
	v, err := s.e.Analyst.View(viewName)
	if err != nil {
		return nil, nil, st, err
	}
	s.v = v
	t2 := time.Now()
	if name == "explore" {
		// The serve configuration: an event log (discarding, behind the
		// benchmark's sink wrapper) and an admission gate.
		elog, err := obs.NewEventLog(obs.EventLogConfig{W: timedWriter{w: io.Discard, tr: tr}})
		if err != nil {
			return nil, nil, st, err
		}
		s.e.SetEventLog(elog)
		d.SetGate(core.NewGate(core.GateConfig{Reg: d.MetricsRegistry(), Wall: wallUs()}))
	} else {
		dev := &timedDevice{Device: storage.NewMemDevice(storage.DefaultDiskCost()), tr: tr}
		if err := v.AttachStoreDevice(view.BackingTransposed, dev, frames); err != nil {
			return nil, nil, st, err
		}
	}
	t3 := time.Now()
	var warm []string
	switch name {
	case "explore":
		for _, attr := range []string{"AGE", "SALARY"} {
			for _, fn := range builtins {
				warm = append(warm, fmt.Sprintf("compute %s %s on mv", fn, attr))
			}
		}
	case "scan":
		warm = []string{"regress SALARY on AGE over mv", "ttest SALARY by SEX on mv"}
	case "clean":
		warm = []string{"describe SALARY on cv"}
	}
	for _, stmt := range warm {
		if err := s.e.Run(stmt); err != nil {
			return nil, nil, st, fmt.Errorf("warm-up %q: %w", stmt, err)
		}
	}
	t4 := time.Now()
	st = setupTimes{generate: t1.Sub(t0), materialize: t2.Sub(t1), attach: t3.Sub(t2), warm: t4.Sub(t3)}
	return s, ds, st, nil
}

// build deals the session's op deck from an oracle over ds, the data
// its set-up generated.
func (s *session) build(ds *dataset.Dataset) error {
	var err error
	switch s.name {
	case "explore":
		err = s.buildExplore(ds)
	case "scan":
		err = s.buildScan(ds)
	case "clean":
		err = s.buildClean(ds)
	}
	for i := range s.ops {
		for _, verb := range s.ops[i].verbs {
			s.ops[i].spans = append(s.ops[i].spans, "query."+verb)
		}
	}
	return err
}

// wallUs is the gate's wall clock in microseconds, as statdb serve
// configures it.
func wallUs() func() int64 {
	start := time.Now()
	return func() int64 { return time.Since(start).Microseconds() }
}

// oracleScalar computes fn with the serial internal/stats functions.
func oracleScalar(fn string, xs []float64, valid []bool) (float64, error) {
	switch fn {
	case "count":
		return float64(stats.Count(xs, valid)), nil
	case "sum":
		return stats.Sum(xs, valid), nil
	case "mean":
		return stats.Mean(xs, valid)
	case "variance":
		return stats.Variance(xs, valid)
	case "sd":
		return stats.StdDev(xs, valid)
	case "min":
		return stats.Min(xs, valid)
	case "max":
		return stats.Max(xs, valid)
	case "median":
		return stats.Median(xs, valid)
	case "q1":
		return stats.Quantile(xs, valid, 0.25)
	case "q3":
		return stats.Quantile(xs, valid, 0.75)
	case "mode":
		m, _, err := stats.Mode(xs, valid)
		return m, err
	case "unique":
		return float64(stats.UniqueCount(xs, valid)), nil
	}
	return 0, fmt.Errorf("no oracle for %q", fn)
}

// column returns a numeric column of the generated data, truncated to
// the first rows rows.
func column(ds *dataset.Dataset, attr string, rows int) ([]float64, []bool, error) {
	xs, valid, err := ds.NumericByName(attr)
	if err != nil {
		return nil, nil, err
	}
	if valid != nil {
		valid = valid[:rows]
	}
	return xs[:rows], valid, nil
}

// buildExplore deals the 24 cached computes: every op is a Summary DB hit.
func (s *session) buildExplore(ds *dataset.Dataset) error {
	plain := query.NewExecutor(s.d, analyst, io.Discard)
	for _, attr := range []string{"AGE", "SALARY"} {
		xs, valid, err := column(ds, attr, dataRows)
		if err != nil {
			return err
		}
		for _, fn := range builtins {
			val, err := oracleScalar(fn, xs, valid)
			if err != nil {
				return err
			}
			stmt := fmt.Sprintf("compute %s %s on mv", fn, attr)
			s.ops = append(s.ops, op{
				stmts: []string{stmt},
				verbs: []string{"compute"},
				want:  []string{fmt.Sprintf("%s(%s) = %g\n", fn, attr, val)},
				replay: func() error {
					if err := s.tr.timed("query.parse", func() error { _, err := query.Parse(stmt); return err }); err != nil {
						return err
					}
					if err := s.tr.timed("view.compute", func() error { _, err := s.v.Compute(fn, attr); return err }); err != nil {
						return err
					}
					return s.tr.timed("query.unlogged", func() error { return plain.Run(stmt) })
				},
			})
		}
	}
	s.countOps = 20000
	s.guard = func(before, after obs.Snapshot, n int) error {
		dl := deltas(before, after)
		if m, r := dl(obs.MSummaryMisses)+dl(obs.MSummaryStaleRefill), dl(obs.MStoragePageReads); m != 0 || r != 0 {
			return fmt.Errorf("explore left the cache-resident class: %d summary misses or stale refills, %d page reads", m, r)
		}
		if h := dl(obs.MSummaryHits); h != int64(n) {
			return fmt.Errorf("explore: %d summary hits over %d ops, want one per op", h, n)
		}
		return nil
	}
	return nil
}

// buildScan deals the two never-cached passes over the stored columns.
func (s *session) buildScan(ds *dataset.Dataset) error {
	age, _, err := column(ds, "AGE", dataRows)
	if err != nil {
		return err
	}
	sal, _, err := column(ds, "SALARY", dataRows)
	if err != nil {
		return err
	}
	reg, err := stats.LinearRegression(age, sal, nil, nil)
	if err != nil {
		return err
	}
	sex, _ := ds.Strings(ds.Schema().Index("SEX"))
	groups := map[string][]float64{}
	var order []string
	for r := 0; r < dataRows; r++ {
		if _, seen := groups[sex[r]]; !seen {
			order = append(order, sex[r])
		}
		groups[sex[r]] = append(groups[sex[r]], sal[r])
	}
	if len(order) != 2 {
		return fmt.Errorf("scan: %d SEX groups, want 2", len(order))
	}
	a, b := groups[order[0]], groups[order[1]]
	tt, err := stats.WelchTTest(a, nil, b, nil)
	if err != nil {
		return err
	}
	verdict := "no significant difference at 5%"
	if tt.PValue < 0.05 {
		verdict = "SIGNIFICANT difference at 5%"
	}
	passes := []struct {
		stmt, verb, want string
		cols             []string
	}{
		{"regress SALARY on AGE over mv", "regress",
			fmt.Sprintf("SALARY = %.4g + %.4g*AGE   (R2=%.4f, n=%d)\n", reg.Intercept, reg.Slope, reg.R2, reg.N),
			[]string{"SALARY", "AGE"}},
		{"ttest SALARY by SEX on mv", "ttest",
			fmt.Sprintf("SALARY by SEX: %s(n=%d) vs %s(n=%d)  diff=%.4g t=%.3f df=%.1f p=%.4f -> %s\n",
				order[0], len(a), order[1], len(b), tt.MeanDiff, tt.Statistic, tt.DF, tt.PValue, verdict),
			[]string{"SALARY"}},
	}
	for _, p := range passes {
		s.ops = append(s.ops, op{
			stmts: []string{p.stmt},
			verbs: []string{p.verb},
			want:  []string{p.want},
			replay: func() error {
				if err := s.tr.timed("query.parse", func() error { _, err := query.Parse(p.stmt); return err }); err != nil {
					return err
				}
				for _, c := range p.cols {
					if err := s.tr.timed("view.column", func() error { _, _, err := s.v.Column(c); return err }); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	s.countOps = 60
	s.guard = func(before, after obs.Snapshot, n int) error {
		dl := deltas(before, after)
		if l := dl(obs.MSummaryHits) + dl(obs.MSummaryMisses) + dl(obs.MSummaryStaleRefill); l != 0 {
			return fmt.Errorf("scan made %d Summary DB lookups, want none", l)
		}
		hits, misses := dl(obs.MStoragePoolHits), dl(obs.MStoragePoolMisses)
		if misses == 0 || float64(hits) > 0.5*float64(hits+misses) {
			return fmt.Errorf("scan: pool hit ratio %d/%d shows the working set fits the pool", hits, hits+misses)
		}
		return nil
	}
	return nil
}

// buildClean deals one update / describe / undo / median cycle per
// block of cleanBlock consecutive IDs: each cycle marks one batch of
// records invalid (Section 2.2). IDs are independent of SALARY, so every
// batch is spread evenly over the SALARY distribution and each cycle
// takes the same Summary DB route. Blocks holding SALARY's minimum or
// maximum are left out: deleting an extreme makes the min/max maintainer
// rebuild with a full pass, a second class of work.
func (s *session) buildClean(ds *dataset.Dataset) error {
	ids, _, err := column(ds, "ID", cleanRows)
	if err != nil {
		return err
	}
	sal, _, err := column(ds, "SALARY", cleanRows)
	if err != nil {
		return err
	}
	before, err := describeLine(sal, nil)
	if err != nil {
		return err
	}
	median, err := stats.Median(sal, nil)
	if err != nil {
		return err
	}
	lo, err := stats.Min(sal, nil)
	if err != nil {
		return err
	}
	hi, err := stats.Max(sal, nil)
	if err != nil {
		return err
	}
blocks:
	for first := 0; first+cleanBlock <= cleanRows; first += cleanBlock {
		last := first + cleanBlock
		surviving := make([]bool, cleanRows)
		rows := 0
		for r, id := range ids {
			surviving[r] = int(id) < first || int(id) >= last
			if surviving[r] {
				continue
			}
			if sal[r] == lo || sal[r] == hi {
				continue blocks
			}
			rows++
		}
		after, err := describeLine(sal, surviving)
		if err != nil {
			return err
		}
		update := fmt.Sprintf("update cv set SALARY = null where ID >= %d and ID < %d", first, last)
		cmd, err := query.Parse(update)
		if err != nil {
			return err
		}
		pred := cmd.(query.Update).Where
		stmts := []string{update, "describe SALARY on cv", "undo cv", "compute median SALARY on cv"}
		s.ops = append(s.ops, op{
			stmts: stmts,
			verbs: []string{"update", "describe", "undo", "compute"},
			want:  []string{fmt.Sprintf("%d rows updated\n", rows), after, "undone\n", fmt.Sprintf("median(SALARY) = %g\n", median)},
			replay: func() error {
				for _, stmt := range stmts {
					if err := s.tr.timed("query.parse", func() error { _, err := query.Parse(stmt); return err }); err != nil {
						return err
					}
				}
				if err := s.tr.timed("view.update", func() error {
					n, err := s.v.UpdateWhere("SALARY", pred, dataset.Null)
					if err == nil && n != rows {
						err = fmt.Errorf("replayed update changed %d rows, want %d", n, rows)
					}
					return err
				}); err != nil {
					return err
				}
				if err := s.tr.timed("view.describe", func() error { _, err := s.v.Describe("SALARY"); return err }); err != nil {
					return err
				}
				if err := s.tr.timed("view.undo", s.v.Undo); err != nil {
					return err
				}
				return s.tr.timed("view.compute", func() error { _, err := s.v.Compute("median", "SALARY"); return err })
			},
		})
	}
	s.countOps = 40
	s.routes = s.v.Summary().Counters
	s.post = func() error {
		s.outs[0].Reset()
		s.e.Out = &s.outs[0]
		if err := s.e.Run("describe SALARY on cv"); err != nil {
			return err
		}
		if got := s.outs[0].String(); got != before {
			return fmt.Errorf("describe after undo: got %q, want the pre-update %q", got, before)
		}
		return nil
	}
	return nil
}

// describeLine is the describe statement's expected output over the
// rows keep selects (nil keeps all), from the serial stats functions.
func describeLine(xs []float64, keep []bool) (string, error) {
	var err error
	get := func(fn string) float64 {
		v, e := oracleScalar(fn, xs, keep)
		if err == nil {
			err = e
		}
		return v
	}
	n := stats.Count(xs, keep)
	return fmt.Sprintf("SALARY: n=%d missing=%d mean=%.6g sd=%.6g min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g mode=%.6g unique=%d\n",
		n, len(xs)-n, get("mean"), get("sd"), get("min"), get("q1"), get("median"), get("q3"), get("max"), get("mode"), int(get("unique"))), err
}

// deltas returns a counter-delta reader over two snapshots.
func deltas(before, after obs.Snapshot) func(string) int64 {
	return func(name string) int64 { return after.Counters[name] - before.Counters[name] }
}

// deck deals op indices: a fresh seeded permutation of the whole deck
// every len(ops) draws, so every run mixes the ops in equal shares.
type deck struct {
	rng  *rand.Rand
	perm []int
	next int
}

func newDeck(seed int64, n int) *deck {
	return &deck{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n), next: n}
}

func (d *deck) draw() int {
	if d.next == len(d.perm) {
		d.perm, d.next = d.rng.Perm(len(d.perm)), 0
	}
	d.next++
	return d.perm[d.next-1]
}
