package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/stats"
	"statdb/internal/storage"
	"statdb/internal/summary"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics. Failures are not a metric: they
// are the result's attempted and failed counts, and any failure makes
// the result incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the --trace 1 metrics. Counts come from counter deltas
// over an untraced phase of a fixed op count, so they repeat exactly
// for a seed; timings come from the traced phase and the probes.
var perLayer = []metricDef{
	{"setup.generate_s", "s"},
	{"setup.materialize_s", "s"},
	{"setup.attach_s", "s"},
	{"setup.warm_s", "s"},
	{"trace.op_us", "us"},
	{"trace.remainder_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"query.parse_us", "us"},
	{"query.exec_self_us", "us"},
	{"query.eventlog_us", "us"},
	{"query.update_us", "us"},
	{"query.describe_us", "us"},
	{"query.undo_us", "us"},
	{"obs.snapshot_us", "us"},
	{"obs.sink_us", "us"},
	{"obs.instruments", "count"},
	{"view.self_us", "us"},
	{"view.compute_hit_us", "us"},
	{"view.column_us", "us"},
	{"view.update_us", "us"},
	{"view.describe_us", "us"},
	{"view.undo_us", "us"},
	{"view.column_scans_per_op", "count"},
	{"summary.hit_ratio", "ratio"},
	{"summary.passes_per_op", "count"},
	{"summary.incremental_per_op", "count"},
	{"summary.slides_per_op", "count"},
	{"summary.rebuilds_per_op", "count"},
	{"summary.recomputes_per_op", "count"},
	{"medwin.rebuilds_per_op", "count"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.page_reads_per_op", "count"},
	{"storage.page_writes_per_op", "count"},
	{"storage.evict_dirty_per_op", "count"},
	{"storage.device_us_per_op", "us"},
	{"colstore.numeric_column_us", "us"},
	{"colstore.update_value_us", "us"},
	{"colstore.stored_bytes_per_value", "B"},
	{"exec.chunks_per_op", "count"},
	{"exec.rows_decoded_per_op", "count"},
	{"exec.fold_us", "us"},
	{"stats.kernel_us", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_kop", "count"},
}

// setupReps is how many times a run boots its workload; set-up metrics
// are the medians.
const setupReps = 5

// boot sets the workload up setupReps times, keeps the last session and
// builds its op deck.
func boot(cfg config, tr *tracer) (*session, []setupTimes, error) {
	var s *session
	var ds *dataset.Dataset
	var times []setupTimes
	for r := 0; r < setupReps; r++ {
		s, ds = nil, nil
		runtime.GC()
		var st setupTimes
		var err error
		s, ds, st, err = setup(cfg.workload, cfg.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, st)
	}
	return s, times, s.build(ds)
}

// phase is one closed-loop pass over the op deck.
type phase struct {
	ops, failed int
	regens      int     // ops that regenerated a Summary DB entry (clean)
	lat         []int64 // per-op latency, ns
	elapsed     time.Duration
	firstErr    error
	// windows are the phase cut into consecutive spans of at least
	// windowLen, each closed at the first op boundary after it.
	windows []window
}

// window is one slice of a phase: its ops, wall time and process CPU.
type window struct {
	ops       int
	wall, cpu time.Duration
}

// windowLen is the length of the windows a timed phase is cut into.
// The machine's speed drifts over seconds, so the end-to-end rates are
// medians over windows rather than one mean over the whole phase.
const windowLen = time.Second

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// runOp runs one op as the client sees it and checks its answers. The
// latency covers the statements only, not the checks.
func (s *session) runOp(o *op, i int) (time.Duration, error) {
	s.tr.setOp(int32(i))
	root := s.tr.begin("op")
	start := time.Now()
	var err error
	for j, stmt := range o.stmts {
		s.outs[j].Reset()
		s.e.Out = &s.outs[j]
		sp := s.tr.begin(o.spans[j])
		m, rerr := s.e.RunMeasured(stmt)
		s.tr.end(sp)
		if rerr != nil {
			err = fmt.Errorf("%q: %w", stmt, rerr)
			break
		}
		if m.Verb != o.verbs[j] {
			err = fmt.Errorf("%q dispatched as %s, want %s", stmt, m.Verb, o.verbs[j])
			break
		}
	}
	lat := time.Since(start)
	s.tr.end(root)
	if err != nil {
		return lat, err
	}
	for j, stmt := range o.stmts {
		if got := s.outs[j].String(); !sameAnswer(got, o.want[j]) {
			return lat, fmt.Errorf("%q answered %q, want %q", stmt, got, o.want[j])
		}
	}
	return lat, nil
}

var number = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`)

// sameAnswer reports whether got matches want with every number within
// a relative 1e-9: full-precision sums, means and variances legitimately
// differ from the serial oracle in their last digits, because the
// parallel engine merges partial results in a different grouping.
func sameAnswer(got, want string) bool {
	if got == want {
		return true
	}
	if number.ReplaceAllString(got, "#") != number.ReplaceAllString(want, "#") {
		return false
	}
	gs, ws := number.FindAllString(got, -1), number.FindAllString(want, -1)
	for i := range gs {
		g, err1 := strconv.ParseFloat(gs[i], 64)
		w, err2 := strconv.ParseFloat(ws[i], 64)
		if err1 != nil || err2 != nil || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return false
		}
	}
	return true
}

// loop runs ops from a fresh deck until n ops (n > 0) or the deadline.
// Outside tracing it checks clean's per-op route signature; when
// replays is set it replays each op's layer calls after it.
func (s *session) loop(seed int64, n int, d time.Duration, replays bool) *phase {
	p := &phase{}
	dk := newDeck(seed, len(s.ops))
	var route summary.Counters
	start := time.Now()
	deadline := start.Add(d)
	w := window{}
	wStart, wCPU := start, cpuTime()
	for i := 0; n == 0 || i < n; i++ {
		if now := time.Now(); n == 0 {
			if now.Sub(wStart) >= windowLen {
				c := cpuTime()
				w.wall, w.cpu = now.Sub(wStart), c-wCPU
				p.windows = append(p.windows, w)
				w, wStart, wCPU = window{}, now, c
			}
			if i > 0 && !now.Before(deadline) {
				break
			}
		}
		w.ops++
		o := &s.ops[dk.draw()]
		var c0 summary.Counters
		if s.routes != nil {
			c0 = s.routes()
		}
		lat, err := s.runOp(o, i)
		p.ops++
		p.lat = append(p.lat, int64(lat))
		if err != nil {
			p.fail(err)
			continue
		}
		if s.routes != nil && !replays {
			r, regens := routeOf(c0, s.routes())
			if regens > 0 {
				p.regens++
			}
			if i == 0 {
				route = r
			} else if r != route {
				p.fail(fmt.Errorf("op %d took Summary DB route %+v, op 0 took %+v", i, r, route))
			}
		}
		if replays {
			if err := o.replay(); err != nil {
				p.fail(fmt.Errorf("replay: %w", err))
			}
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// routeOf is the Summary DB route one op took — which lookups hit,
// missed or refilled, which maintenance strategies absorbed the update,
// how many recompute passes it forced — and its regenerations, which the
// route leaves out. Update/undo pairs slowly erode a median window until
// it regenerates (Section 4.2): every few hundred cycles, one cycle
// takes the same route plus one full pass.
func routeOf(before, after summary.Counters) (summary.Counters, int64) {
	regens := after.Rebuilds - before.Rebuilds
	return summary.Counters{
		Hits:        after.Hits - before.Hits,
		Misses:      after.Misses - before.Misses,
		StaleRefill: after.StaleRefill - before.StaleRefill,
		Incremental: after.Incremental - before.Incremental,
		Slides:      after.Slides - before.Slides,
		Recomputes:  after.Recomputes - before.Recomputes,
		Passes:      after.Passes - before.Passes - regens,
	}, regens
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func medianOf(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func setupMedian(times []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = part(t).Seconds()
	}
	return medianOf(xs)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timed is the --trace 0 run: set-up, then the closed loop for the
// configured seconds, then the guards and end-to-end metrics.
func timed(cfg config, stdout io.Writer) (result, error) {
	tr := newTracer()
	s, times, err := boot(cfg, tr)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	before := s.d.Metrics()
	p := s.loop(cfg.seed, 0, time.Duration(cfg.seconds)*time.Second, false)
	after := s.d.Metrics()
	res := result{Correct: true, Attempted: int64(p.ops), Failed: int64(p.failed)}
	if err := s.check(p, before, after); err != nil {
		fmt.Fprintln(stdout, "check failed:", err)
		res.Correct = false
	}
	if len(p.windows) == 0 {
		return result{}, fmt.Errorf("phase of %s ended before its first window", p.elapsed)
	}
	rates := make([]float64, len(p.windows))
	cpus := make([]float64, len(p.windows))
	p50s := make([]float64, len(p.windows))
	first := 0
	for i, w := range p.windows {
		rates[i] = float64(w.ops) / w.wall.Seconds()
		cpus[i] = float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.ops)
		lat := append([]int64(nil), p.lat[first:first+w.ops]...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50s[i] = float64(quantile(lat, 0.5)) / 1e3
		first += w.ops
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	n := len(p.lat)
	p90 := quantile(p.lat, 0.9)
	beyond := n - int(math.Ceil(0.9*float64(n)))
	fmt.Fprintf(stdout, "%s seed %d: %d ops in %.3fs; p50, rate and CPU are medians over %d one-second windows; p90 %.1fus over all %d ops (%d beyond it); %d regenerating ops; setup median of %d\n",
		cfg.workload, cfg.seed, n, p.elapsed.Seconds(), len(p.windows), float64(p90)/1e3, n, beyond, p.regens, len(times))
	p.lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	res.Metrics = map[string]metric{
		"setup_s":       {setupMedian(times, setupTimes.total), "s"},
		"ops_per_s":     {medianOf(rates), "1/s"},
		"op_p50_us":     {medianOf(p50s), "us"},
		"op_p90_us":     {float64(p90) / 1e3, "us"},
		"cpu_us_per_op": {medianOf(cpus), "us"},
		"live_heap_mb":  {float64(ms.HeapAlloc) / 1e6, "MB"},
	}
	return res, nil
}

// check applies the answer checks, the single-mode guard and the
// workload's post-phase check.
func (s *session) check(p *phase, before, after obs.Snapshot) error {
	if p.failed > 0 {
		return fmt.Errorf("%d of %d ops failed; first: %w", p.failed, p.ops, p.firstErr)
	}
	if s.guard != nil {
		if err := s.guard(before, after, p.ops); err != nil {
			return err
		}
	}
	if p.regens*100 > p.ops {
		return fmt.Errorf("%d of %d ops regenerated a Summary DB entry: more than 1%% is a second class of work", p.regens, p.ops)
	}
	if s.post != nil {
		return s.post()
	}
	return nil
}

// counts is the untraced fixed-length phase of the traced run: count
// metrics from counter deltas, and the untraced throughput the traced
// phase is compared with.
func counts(s *session, seed int64, n int) (map[string]float64, *phase, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := s.d.Metrics()
	p := s.loop(seed, n, 0, false)
	after := s.d.Metrics()
	runtime.ReadMemStats(&m1)
	if err := s.check(p, before, after); err != nil {
		return nil, p, err
	}
	dl := deltas(before, after)
	ops := float64(p.ops)
	per := func(name string) float64 { return float64(dl(name)) / ops }
	lookups := dl(obs.MSummaryHits) + dl(obs.MSummaryMisses) + dl(obs.MSummaryStaleRefill)
	return map[string]float64{
		"view.column_scans_per_op":   per(obs.MViewColumnScans),
		"summary.hit_ratio":          ratio(dl(obs.MSummaryHits), lookups),
		"summary.passes_per_op":      per(obs.MSummaryPasses),
		"summary.incremental_per_op": per(obs.MSummaryIncremental),
		"summary.slides_per_op":      per(obs.MSummarySlides),
		"summary.rebuilds_per_op":    per(obs.MSummaryRebuilds),
		"summary.recomputes_per_op":  float64(dl(obs.MSummaryRecomputes)+dl(obs.MSummaryStaleRefill)) / ops,
		"medwin.rebuilds_per_op":     per(obs.MMedwinRebuilds),
		"storage.pool_hit_ratio":     ratio(dl(obs.MStoragePoolHits), dl(obs.MStoragePoolHits)+dl(obs.MStoragePoolMisses)),
		"storage.page_reads_per_op":  per(obs.MStoragePageReads),
		"storage.page_writes_per_op": per(obs.MStoragePageWrites),
		"storage.evict_dirty_per_op": per(obs.MStoragePoolEvictDirty),
		"exec.chunks_per_op":         per(obs.MExecChunks),
		"exec.rows_decoded_per_op":   per(obs.MExecRowsDecoded),
		"obs.instruments":            float64(len(after.Counters) + len(after.Gauges) + len(after.Histograms)),
		"runtime.alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		"runtime.allocs_per_op":      float64(m1.Mallocs-m0.Mallocs) / ops,
		"runtime.gc_per_kop":         float64(m1.NumGC-m0.NumGC) / ops * 1000,
	}, p, nil
}

// traced is the --trace 1 run: set-up, the untraced count phase, the
// same op stream again with spans and replays, then the probes.
func traced(cfg config, stdout io.Writer) (result, error) {
	tr := newTracer()
	s, times, err := boot(cfg, tr)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	vals, plain, err := counts(s, cfg.seed, s.countOps)
	res.Attempted, res.Failed = int64(plain.ops), int64(plain.failed)
	if err != nil {
		fmt.Fprintln(stdout, "check failed:", err)
		res.Correct = false
		vals = map[string]float64{}
	}
	pr, err := s.newProbes()
	if err != nil {
		return result{}, err
	}
	tr.setOn(true)
	p := s.loop(cfg.seed, s.countOps, 0, true)
	tr.setOp(probeOp)
	perr := pr.run()
	tr.setOn(false)
	res.Attempted += int64(p.ops)
	res.Failed += int64(p.failed)
	if p.failed > 0 || perr != nil {
		fmt.Fprintln(stdout, "traced phase failed:", p.firstErr, perr)
		res.Correct = false
	}
	if s.post != nil {
		if err := s.post(); err != nil {
			fmt.Fprintln(stdout, "check failed:", err)
			res.Correct = false
		}
	}
	b, err := analyse(tr.spans)
	if err != nil {
		fmt.Fprintln(stdout, "trace:", err)
		res.Correct = false
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "%s seed %d: %d ops per phase; traced op %.1fus = parse %.1f + view %.1f + exec self %.1f + device %.1f + sink %.1f + remainder %.1f; spans in %s\n",
		cfg.workload, cfg.seed, s.countOps, b.op, b.parse, b.view, b.execSelf, b.device, b.sink, b.remainder, path)

	vals["setup.generate_s"] = setupMedian(times, func(t setupTimes) time.Duration { return t.generate })
	vals["setup.materialize_s"] = setupMedian(times, func(t setupTimes) time.Duration { return t.materialize })
	vals["setup.attach_s"] = setupMedian(times, func(t setupTimes) time.Duration { return t.attach })
	vals["setup.warm_s"] = setupMedian(times, func(t setupTimes) time.Duration { return t.warm })
	vals["trace.op_us"] = b.op
	vals["trace.remainder_us"] = b.remainder
	untraced := float64(plain.ops) / plain.elapsed.Seconds()
	vals["trace.overhead_frac"] = 0
	if b.op > 0 {
		vals["trace.overhead_frac"] = 1 - (1e6/b.op)/untraced
	}
	vals["query.parse_us"] = b.parse
	vals["query.exec_self_us"] = b.execSelf
	vals["query.eventlog_us"] = 0
	if b.unlogged > 0 {
		vals["query.eventlog_us"] = b.op - b.unlogged
	}
	vals["query.update_us"] = b.stmt["query.update"]
	vals["query.describe_us"] = b.stmt["query.describe"]
	vals["query.undo_us"] = b.stmt["query.undo"]
	vals["obs.snapshot_us"] = b.self["obs.snapshot"]
	vals["obs.sink_us"] = b.sink
	vals["view.self_us"] = b.view
	vals["view.compute_hit_us"] = b.self["view.compute_hit"]
	vals["view.column_us"] = b.self["view.column"]
	vals["view.update_us"] = b.self["view.update"]
	vals["view.describe_us"] = b.self["view.describe"]
	vals["view.undo_us"] = b.self["view.undo"]
	vals["storage.device_us_per_op"] = b.device
	vals["colstore.numeric_column_us"] = b.self["colstore.numeric_column"]
	vals["colstore.update_value_us"] = b.self["colstore.update_value"]
	vals["colstore.stored_bytes_per_value"] = pr.bytesPerValue
	vals["exec.fold_us"] = b.self["exec.fold"]
	vals["stats.kernel_us"] = b.self["stats.kernel"]
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// probes times single layer entry points on the session's data, each
// call as its own top-level span: the cached compute, the snapshot, and
// the colstore, exec and stats calls under the statements on a store
// and columns the benchmark builds itself.
type probes struct {
	s             *session
	col           *colstore.File
	rows          int
	salary, age   []float64
	bySex         [2][]float64 // SALARY split by SEX
	pool          *exec.Pool
	bytesPerValue float64
}

func (s *session) newProbes() (*probes, error) {
	ds := s.v.Dataset()
	frames := scanFrames
	if s.name == "clean" {
		frames = cleanFrames
	}
	pool := storage.NewBufferPool(&timedDevice{Device: storage.NewMemDevice(storage.DefaultDiskCost()), tr: s.tr}, frames)
	col, err := colstore.Load(pool, ds, colstore.Options{Encode: colstore.SuggestEncodings(ds)})
	if err != nil {
		return nil, err
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	pages, err := col.ColumnPages("SALARY")
	if err != nil {
		return nil, err
	}
	pr := &probes{s: s, col: col, rows: ds.Rows(), pool: exec.New(runtime.GOMAXPROCS(0))}
	pr.bytesPerValue = float64(pages*storage.PageSize) / float64(pr.rows)
	if pr.salary, _, err = ds.NumericByName("SALARY"); err != nil {
		return nil, err
	}
	if pr.age, _, err = ds.NumericByName("AGE"); err != nil {
		return nil, err
	}
	sex, _ := ds.Strings(ds.Schema().Index("SEX"))
	for r, g := range sex {
		if g == sex[0] {
			pr.bySex[0] = append(pr.bySex[0], pr.salary[r])
		} else {
			pr.bySex[1] = append(pr.bySex[1], pr.salary[r])
		}
	}
	// The cached-compute probe times hits only.
	if _, err := s.v.Compute("count", "SALARY"); err != nil {
		return nil, err
	}
	return pr, nil
}

func (pr *probes) run() error {
	s, tr := pr.s, pr.s.tr
	repeat := func(n int, name string, fn func(i int) error) error {
		for i := 0; i < n; i++ {
			if err := tr.timed(name, func() error { return fn(i) }); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
		}
		return nil
	}
	steps := []func() error{
		func() error {
			return repeat(200, "obs.snapshot", func(int) error { s.d.Metrics(); return nil })
		},
		func() error {
			return repeat(200, "view.compute_hit", func(int) error { _, err := s.v.Compute("count", "SALARY"); return err })
		},
		func() error {
			if s.name == "scan" { // scan's ops replay their own column reads
				return nil
			}
			return repeat(5, "view.column", func(int) error { _, _, err := s.v.Column("SALARY"); return err })
		},
		func() error {
			return repeat(5, "colstore.numeric_column", func(int) error { _, _, err := pr.col.NumericColumn("SALARY"); return err })
		},
		func() error {
			ds := s.v.Dataset()
			ci := ds.Schema().Index("SALARY")
			return repeat(200, "colstore.update_value", func(i int) error {
				r := i * (pr.rows / 200)
				return pr.col.UpdateValue("SALARY", r, ds.Cell(r, ci))
			})
		},
		func() error {
			return repeat(5, "exec.fold", func(int) error {
				exec.ColumnMoments(pr.pool, pr.salary, nil, exec.DefaultChunk)
				exec.ColumnFreq(pr.pool, pr.salary, nil, exec.DefaultChunk)
				return nil
			})
		},
		func() error {
			return repeat(10, "stats.kernel", func(i int) error {
				if i%2 == 0 {
					_, err := stats.FitMultiple(pr.salary, nil, [][]float64{pr.age}, [][]bool{nil})
					return err
				}
				_, err := stats.WelchTTest(pr.bySex[0], nil, pr.bySex[1], nil)
				return err
			})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
