package summary

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/index"
	"statdb/internal/medwin"
	"statdb/internal/obs"
	"statdb/internal/rules"
	"statdb/internal/stats"
)

// Source re-reads one column of the view for (re)computation — the only
// path by which the Summary Database touches the data, so counting calls
// to it counts full column passes.
type Source func() (xs []float64, valid []bool)

// Policy selects how the whole cache reacts to updates (experiment E7).
type Policy uint8

const (
	// PolicyStrategies applies each function's Management Database
	// strategy: incremental, window, or invalidate (the paper's design).
	PolicyStrategies Policy = iota
	// PolicyInvalidateAll marks every affected entry stale on any update
	// and regenerates lazily — the Section 4.3 fallback.
	PolicyInvalidateAll
	// PolicyRecomputeAll recomputes every affected entry immediately on
	// every update — the always-precise worst case.
	PolicyRecomputeAll
)

func (p Policy) String() string {
	switch p {
	case PolicyInvalidateAll:
		return "invalidate-all"
	case PolicyRecomputeAll:
		return "recompute-all"
	default:
		return "per-function"
	}
}

// Counters instrument the cache for the experiments.
type Counters struct {
	Hits        int64 // lookups answered from a fresh entry
	Misses      int64 // lookups that computed from the data
	StaleRefill int64 // lookups that found a stale entry and recomputed
	Incremental int64 // deltas folded into maintainers
	Slides      int64 // deltas absorbed by quantile windows
	Rebuilds    int64 // maintainer/window rebuilds (full column passes)
	Recomputes  int64 // strategy- or policy-forced recomputations
	Passes      int64 // total full column passes through Sources
}

// entry is one cached (function, attributes) result.
type entry struct {
	fn     string
	attrs  []string
	result Result
	fresh  bool
	// Maintenance state, populated according to the function's strategy.
	maint incr.Maintainer // StrategyIncremental
	win   *medwin.Window  // StrategyWindow
	// source re-reads the column for rebuilds (built-in functions).
	source Source
	// runs, when set, re-reads the column as a run column; refreshes
	// prefer it over source (runs.go). Run-served entries carry no
	// maintainer or window — updates invalidate, the next access refills.
	runs RunSource
	// recompute regenerates custom results (Register entries).
	recompute func() (Result, error)
}

func (e *entry) key() []byte {
	parts := append(append([]string{}, e.attrs...), e.fn)
	return index.Key(parts...)
}

func entryKey(fn string, attrs []string) []byte {
	parts := append(append([]string{}, attrs...), fn)
	return index.Key(parts...)
}

// DB is one view's Summary Database. Safe for concurrent use: a view may
// be shared by "a group of users" (Section 3.2), and a published view's
// cache serves several analysts at once. Sources are invoked while the
// lock is held, so a Source must never call back into the same DB.
type DB struct {
	mu       sync.Mutex
	mdb      *rules.ManagementDB
	policy   Policy       // guarded by mu
	idx      *index.BTree // guarded by mu; (attr..., fn) -> slot
	entries  []*entry     // guarded by mu
	counters Counters     // guarded by mu
	// System-wide observability: met mirrors counters into a shared
	// registry (summary.* families) and tracer carries the per-query
	// span tree. Both no-op until SetMetrics/SetTracer wire them.
	met    dbMetrics
	tracer *obs.Tracer
	// Execution engine for whole-column recomputations (SetExec); nil
	// means serial.
	pool  *exec.Pool
	chunk int
	// WindowCapacity sizes quantile windows ("some number, say 100").
	WindowCapacity int
}

// NewDB creates an empty Summary Database driven by mdb's strategies.
func NewDB(mdb *rules.ManagementDB) *DB {
	return &DB{mdb: mdb, idx: index.New(), WindowCapacity: 100}
}

// SetPolicy switches the cache-wide update policy.
func (db *DB) SetPolicy(p Policy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.policy = p
}

// dbMetrics caches registry handles mirroring Counters plus the engine
// routing and pass-cost instruments. Nil handles (no SetMetrics) no-op.
type dbMetrics struct {
	hits, misses, staleRefill          *obs.Counter
	incremental, slides, rebuilds      *obs.Counter
	recomputes, passes                 *obs.Counter
	recomputeSerial, recomputeParallel *obs.Counter
	passTicks                          *obs.Histogram
	medSlides, medRebuilds             *obs.Counter
	// Run-aware strategy accounting (exec.* family; see runs.go).
	runsFolded, rowsDecoded, runStrategyHits *obs.Counter
}

// SetMetrics mirrors the cache's instrumentation into reg under the
// summary.* (and medwin.*) canonical names. The local Counters struct
// keeps working unchanged; the registry is the roll-up view.
func (db *DB) SetMetrics(reg *obs.Registry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.met = dbMetrics{
		hits:              reg.Counter(obs.MSummaryHits),
		misses:            reg.Counter(obs.MSummaryMisses),
		staleRefill:       reg.Counter(obs.MSummaryStaleRefill),
		incremental:       reg.Counter(obs.MSummaryIncremental),
		slides:            reg.Counter(obs.MSummarySlides),
		rebuilds:          reg.Counter(obs.MSummaryRebuilds),
		recomputes:        reg.Counter(obs.MSummaryRecomputes),
		passes:            reg.Counter(obs.MSummaryPasses),
		recomputeSerial:   reg.Counter(obs.MSummaryRecomputeSerial),
		recomputeParallel: reg.Counter(obs.MSummaryRecomputeParallel),
		passTicks:         reg.Histogram(obs.MSummaryPassTicks, obs.PassTicksBounds()),
		medSlides:         reg.Counter(obs.MMedwinSlides),
		medRebuilds:       reg.Counter(obs.MMedwinRebuilds),
		runsFolded:        reg.Counter(obs.MExecRunsFolded),
		rowsDecoded:       reg.Counter(obs.MExecRowsDecoded),
		runStrategyHits:   reg.Counter(obs.MExecRunStrategyHits),
	}
}

// SetTracer attaches the tracer receiving scan/fold spans; nil disables.
func (db *DB) SetTracer(tr *obs.Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = tr
}

// Counters returns a copy of the instrumentation counters.
func (db *DB) Counters() Counters {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.counters
}

// ResetCounters zeroes the instrumentation.
func (db *DB) ResetCounters() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.counters = Counters{}
}

// Len returns the number of cached entries.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// decide accounts n Summary Database decisions of kind k in all three
// places that report them: the DB's own Counters, their registry mirror
// (summary.*), and a note on the statement's innermost open span, from
// which the statement's event record is built. The caller holds db.mu.
func (db *DB) decide(k obs.Note, n int64) {
	switch k {
	case obs.NoteHit:
		db.counters.Hits += n
		db.met.hits.Add(n)
	case obs.NoteMiss:
		db.counters.Misses += n
		db.met.misses.Add(n)
	case obs.NoteStaleRefill:
		db.counters.StaleRefill += n
		db.met.staleRefill.Add(n)
	case obs.NoteIncremental:
		db.counters.Incremental += n
		db.met.incremental.Add(n)
	case obs.NoteSlide:
		db.counters.Slides += n
		db.met.slides.Add(n)
	case obs.NoteRebuild:
		db.counters.Rebuilds += n
		db.met.rebuilds.Add(n)
	case obs.NoteRecompute:
		db.counters.Recomputes += n
		db.met.recomputes.Add(n)
	case obs.NoteSerial:
		db.met.recomputeSerial.Add(n)
	case obs.NoteParallel:
		db.met.recomputeParallel.Add(n)
	}
	db.tracer.Note(k, n)
}

// builtinScalar computes one of the built-in scalar functions over a
// column. The quantile shorthands q1/median/q3 are fixed points of the
// general quantile machinery.
func builtinScalar(fn string, xs []float64, valid []bool) (float64, error) {
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
	case "unique":
		return float64(stats.UniqueCount(xs, valid)), nil
	case "mode":
		m, _, err := stats.Mode(xs, valid)
		return m, err
	}
	return 0, fmt.Errorf("summary: unknown built-in function %q", fn)
}

func quantileOf(fn string) (float64, bool) {
	switch fn {
	case "median":
		return 0.5, true
	case "q1":
		return 0.25, true
	case "q3":
		return 0.75, true
	}
	return 0, false
}

// IsBuiltin reports whether fn is one of the built-in scalar functions.
func IsBuiltin(fn string) bool {
	_, err := builtinScalar(fn, []float64{1, 2}, nil)
	return err == nil
}

// Scalar returns fn(attr), serving from the cache when fresh and
// computing (and installing maintenance state) on a miss. This is the
// search-then-insert protocol of Section 3.2: "if the desired pair is
// found, the corresponding result will be returned; otherwise, after the
// function has been applied ... the new information will be inserted".
func (db *DB) Scalar(fn, attr string, source Source) (float64, error) {
	return db.ScalarRuns(fn, attr, source, nil)
}

// ScalarRuns is Scalar with an optional run-compressed source. When runs
// is non-nil the caller has decided the column is run-eligible (RLE,
// runs/rows under the planner threshold), and misses and refills fold
// the run form in O(runs) through the run kernels; a run read that
// fails falls back to the row source. Run-served entries install no
// incremental maintainer or window: updates invalidate them, and the
// next access refills through the run path again.
func (db *DB) ScalarRuns(fn, attr string, source Source, runs RunSource) (float64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := db.tracer.Begin("summary.scalar", obs.A("fn", fn), obs.A("attr", attr))
	defer sp.End()
	key := entryKey(fn, []string{attr})
	if slot, ok := db.idx.Get(key); ok {
		e := db.entries[slot]
		if e.fresh {
			db.decide(obs.NoteHit, 1)
			sp.SetAttr("outcome", "hit")
			return e.result.Scalar, nil
		}
		// Stale entry: regenerate in place. Entries restored from disk
		// carry no maintenance state and no source (persist.go); adopt the
		// caller's source so recovered entries recompute like misses.
		if e.source == nil && e.recompute == nil {
			e.source = source
		}
		if e.runs == nil {
			e.runs = runs
		}
		sp.SetAttr("outcome", "stale-refill")
		v, err := db.refreshScalar(e)
		if err != nil {
			return 0, err
		}
		db.decide(obs.NoteStaleRefill, 1)
		return v, nil
	}
	db.decide(obs.NoteMiss, 1)
	sp.SetAttr("outcome", "miss")
	e := &entry{fn: fn, attrs: []string{attr}, source: source, runs: runs}
	if runs != nil {
		if rc, ok := db.readRunSource(runs); ok {
			if err := db.tracer.BudgetErr(); err != nil {
				return 0, err
			}
			v, err := db.computeScalarRuns(fn, rc)
			if err != nil {
				return 0, err
			}
			if err := db.tracer.BudgetErr(); err != nil {
				return 0, err
			}
			e.result = ScalarOf(v)
			e.fresh = true
			db.insert(e)
			return v, nil
		}
	}
	xs, valid := db.readSource(source)
	// Sources cannot return errors, so a budget breached during the scan
	// surfaces here — before the fold spends more, and before a partial
	// result is installed in the cache.
	if err := db.tracer.BudgetErr(); err != nil {
		return 0, err
	}
	v, err := db.computeScalar(fn, xs, valid)
	if err != nil {
		return 0, err
	}
	if err := db.tracer.BudgetErr(); err != nil {
		return 0, err
	}
	e.result = ScalarOf(v)
	e.fresh = true
	db.installMaintenance(e, xs, valid)
	db.insert(e)
	return v, nil
}

// readSource runs one full column pass through source under a "scan"
// span, so whatever the reader charges through the tracer (device ticks
// for store-backed views, cell costs for memory columns) lands on the
// scan node of the query's profile. Counts the pass. The caller holds
// db.mu.
func (db *DB) readSource(source Source) ([]float64, []bool) {
	sp := db.tracer.Begin("scan")
	xs, valid := source()
	sp.SetAttr("rows", fmt.Sprintf("%d", len(xs)))
	sp.SetAttr("strategy", "rows")
	sp.End()
	db.counters.Passes++
	db.met.passes.Inc()
	db.met.rowsDecoded.Add(int64(len(xs)))
	return xs, valid
}

// installMaintenance attaches the maintainer or window dictated by the
// function's strategy, reusing the already-read column.
func (db *DB) installMaintenance(e *entry, xs []float64, valid []bool) {
	if db.policy != PolicyStrategies {
		return // policy benches manage freshness, not per-function state
	}
	switch db.mdb.StrategyFor(e.fn) {
	case rules.StrategyIncremental:
		switch e.fn {
		case "count":
			e.maint = incr.NewCount(xs, valid)
		case "sum":
			e.maint = incr.NewSum(xs, valid)
		case "mean":
			e.maint = incr.NewMean(xs, valid)
		case "variance":
			e.maint = incr.NewVariance(xs, valid)
		case "sd":
			e.maint = incr.NewStdDev(xs, valid)
		case "min":
			e.maint = incr.NewMin(xs, valid)
		case "max":
			e.maint = incr.NewMax(xs, valid)
		}
	case rules.StrategyWindow:
		if p, ok := quantileOf(e.fn); ok {
			if w, err := medwin.NewQuantile(xs, valid, p, db.WindowCapacity); err == nil {
				w.SetCounters(db.met.medSlides, db.met.medRebuilds)
				e.win = w
			}
		}
	}
}

// refreshScalar regenerates a stale scalar entry from its source.
func (db *DB) refreshScalar(e *entry) (float64, error) {
	if e.recompute != nil {
		r, err := e.recompute()
		if err != nil {
			return 0, err
		}
		e.result = r
		e.fresh = true
		db.decide(obs.NoteRecompute, 1)
		return r.Scalar, nil
	}
	if e.runs != nil {
		if rc, ok := db.readRunSource(e.runs); ok {
			if err := db.tracer.BudgetErr(); err != nil {
				return 0, err
			}
			v, err := db.computeScalarRuns(e.fn, rc)
			if err != nil {
				return 0, err
			}
			e.result = ScalarOf(v)
			e.fresh = true
			db.decide(obs.NoteRecompute, 1)
			return v, nil
		}
	}
	if e.source == nil {
		// A loaded entry whose source has not been re-adopted yet (custom
		// result restored from disk, or a lookup path that cannot supply
		// one). Degrade explicitly instead of dereferencing nil.
		return 0, fmt.Errorf("summary: stale entry %s(%s) has no source to recompute from",
			e.fn, strings.Join(e.attrs, ","))
	}
	xs, valid := db.readSource(e.source)
	if err := db.tracer.BudgetErr(); err != nil {
		return 0, err
	}
	v, err := db.computeScalar(e.fn, xs, valid)
	if err != nil {
		return 0, err
	}
	e.result = ScalarOf(v)
	e.fresh = true
	db.decide(obs.NoteRecompute, 1)
	db.installMaintenance(e, xs, valid)
	return v, nil
}

func (db *DB) insert(e *entry) {
	slot := int64(len(db.entries))
	db.entries = append(db.entries, e)
	db.idx.Put(e.key(), slot)
}

// Register caches a custom function result computed by compute. Custom
// entries are maintained by the invalidate strategy (or the cache-wide
// policy) and regenerate through compute.
func (db *DB) Register(fn string, attrs []string, compute func() (Result, error)) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := entryKey(fn, attrs)
	if slot, ok := db.idx.Get(key); ok {
		e := db.entries[slot]
		if e.fresh {
			db.decide(obs.NoteHit, 1)
			return e.result, nil
		}
		if e.recompute == nil {
			// The key belongs to a built-in scalar entry; refresh it
			// through the scalar path.
			v, err := db.refreshScalar(e)
			if err != nil {
				return Result{}, err
			}
			db.decide(obs.NoteStaleRefill, 1)
			return ScalarOf(v), nil
		}
		r, err := e.recompute()
		if err != nil {
			return Result{}, err
		}
		e.result = r
		e.fresh = true
		db.decide(obs.NoteStaleRefill, 1)
		db.decide(obs.NoteRecompute, 1)
		return r, nil
	}
	db.decide(obs.NoteMiss, 1)
	r, err := compute()
	if err != nil {
		return Result{}, err
	}
	db.entries = append(db.entries, &entry{
		fn: fn, attrs: attrs, result: r, fresh: true, recompute: compute,
	})
	db.idx.Put(key, int64(len(db.entries)-1))
	return r, nil
}

// Lookup returns the cached result for (fn, attrs) without computing.
// Stale entries report !ok.
func (db *DB) Lookup(fn string, attrs ...string) (Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	slot, ok := db.idx.Get(entryKey(fn, attrs))
	if !ok {
		return Result{}, false
	}
	e := db.entries[slot]
	if !e.fresh {
		return Result{}, false
	}
	db.decide(obs.NoteHit, 1)
	return e.result, true
}

// StoreCustom inserts or overwrites a custom result computed by the
// caller, marking it fresh. Unlike Register it stores no recompute
// closure: after invalidation the entry stays stale until the caller
// recomputes and stores again. This is the cache protocol for callers
// that must not have their closures invoked under the cache lock (the
// view layer, whose closures take the view lock).
func (db *DB) StoreCustom(fn string, attrs []string, r Result) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.decide(obs.NoteMiss, 1)
	if slot, ok := db.idx.Get(entryKey(fn, attrs)); ok {
		e := db.entries[slot]
		e.result = r
		e.fresh = true
		return
	}
	db.insert(&entry{fn: fn, attrs: attrs, result: r, fresh: true})
}

// Invalidate marks every entry touching attr stale — the bulk
// invalidation of Section 4.3. It uses the attribute-clustered index
// scan, which experiment "ablation: clustering" measures.
func (db *DB) Invalidate(attr string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	db.idx.ScanPrefix(index.Key(attr), func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		if e.fresh {
			e.fresh = false
			n++
		}
		return true
	})
	return n
}

// OnUpdate propagates one column update (a batch of deltas against attr)
// into the cache. Each affected entry reacts per the active policy and
// its function's strategy, exactly the flow of Section 4.1: retrieve all
// values clustered on the attribute, then apply each function's rules.
func (db *DB) OnUpdate(attr string, deltas []incr.Delta) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.idx.ScanPrefix(index.Key(attr), func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		db.applyUpdate(e, deltas)
		return true
	})
}

func (db *DB) applyUpdate(e *entry, deltas []incr.Delta) {
	switch db.policy {
	case PolicyInvalidateAll:
		e.fresh = false
		return
	case PolicyRecomputeAll:
		if e.recompute != nil {
			if r, err := e.recompute(); err == nil {
				e.result, e.fresh = r, true
				db.decide(obs.NoteRecompute, 1)
			} else {
				e.fresh = false
			}
			return
		}
		e.fresh = false
		if e.source != nil {
			if _, err := db.refreshScalar(e); err != nil {
				e.fresh = false
			}
		}
		return
	}

	// PolicyStrategies.
	switch {
	case e.maint != nil:
		ok := true
		for _, d := range deltas {
			if !e.maint.Apply(d) {
				ok = false
				break
			}
		}
		if !ok {
			// Defeated (e.g. min's last copy deleted): rebuild from data.
			xs, valid := db.readSource(e.source)
			db.decide(obs.NoteRebuild, 1)
			e.maint.Rebuild(xs, valid)
		} else {
			db.decide(obs.NoteIncremental, int64(len(deltas)))
		}
		if v, err := e.maint.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.fresh = false
		}
	case e.win != nil:
		for _, d := range deltas {
			if d.Delete {
				if err := e.win.Delete(d.Old); err != nil {
					e.fresh = false
					return
				}
			}
			if d.Insert {
				e.win.Insert(d.New)
			}
			db.decide(obs.NoteSlide, 1)
		}
		if e.win.NeedsRebuild() {
			// The pointer ran off: regenerate with one pass (Section 4.2).
			xs, valid := db.readSource(e.source)
			db.decide(obs.NoteRebuild, 1)
			e.win.Rebuild(xs, valid)
		}
		if v, err := e.win.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.fresh = false
		}
	default:
		// StrategyInvalidate (and custom entries).
		e.fresh = false
	}
}

// Row is one line of the Figure 4 table.
type Row struct {
	Function  string
	Attribute string
	Result    string
	Fresh     bool
}

// Dump renders the cache as the Figure 4 three-column table, clustered by
// attribute (the physical order of Section 4.1) and alphabetical by
// function within an attribute.
func (db *DB) Dump() []Row {
	db.mu.Lock()
	defer db.mu.Unlock()
	var rows []Row
	db.idx.Scan(nil, nil, func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		rows = append(rows, Row{
			Function:  e.fn,
			Attribute: strings.Join(e.attrs, ","),
			Result:    e.result.String(),
			Fresh:     e.fresh,
		})
		return true
	})
	return rows
}

// AttributesCached lists the attributes with at least one cached entry.
func (db *DB) AttributesCached() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	set := map[string]bool{}
	for _, e := range db.entries {
		set[strings.Join(e.attrs, ",")] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
