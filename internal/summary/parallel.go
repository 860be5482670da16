package summary

import (
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/stats"
)

// ParallelThreshold is the column length below which Summary Database
// recomputations stay on the exact serial operators even when a pool is
// attached: fan-out overhead loses on short columns, and keeping small
// data sets serial preserves the pre-engine results bit for bit.
const ParallelThreshold = 2 * exec.DefaultChunk

// SetExec attaches an execution pool so whole-column recomputations
// (cache misses, stale refills, maintainer rebuild passes feeding
// computeScalar) run chunk-parallel. A nil or single-worker pool — or
// chunk <= 0 with short columns — keeps today's serial behavior.
// Results are deterministic for any worker count; order-insensitive
// functions (count, min, max, median, quartiles, mode, unique) are
// bit-identical to serial, while sum, mean, variance and sd may differ
// in the last units of precision.
func (db *DB) SetExec(p *exec.Pool, chunk int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pool = p
	if chunk <= 0 {
		chunk = exec.DefaultChunk
	}
	db.chunk = chunk
}

// computeScalar evaluates a built-in function, routing long columns
// through the pool and everything else through builtinScalar. The fold
// is profiled as a span charged with the engine cost model's ticks for
// the chosen route (never wall time), so EXPLAIN output is deterministic
// and the serial-vs-parallel decision is visible in both the span attrs
// and the summary.recompute.{serial,parallel} counters.
func (db *DB) computeScalar(fn string, xs []float64, valid []bool) (float64, error) {
	cost := exec.DefaultCost()
	p := db.pool
	if p == nil || p.Workers() <= 1 || len(xs) < ParallelThreshold {
		ticks := cost.SerialTicks(len(xs))
		sp := db.tracer.Begin("fold", obs.A("fn", fn), obs.A("engine", "serial"))
		sp.Charge(ticks)
		defer sp.End()
		db.decide(obs.NoteSerial, 1)
		db.met.passTicks.Observe(ticks)
		return builtinScalar(fn, xs, valid)
	}
	chunks := len(exec.Chunks(len(xs), db.chunk))
	workers := p.Workers()
	if workers > chunks {
		workers = chunks
	}
	ticks := cost.ParallelTicks(len(xs), db.chunk, p.Workers())
	sp := db.tracer.Begin("fold", obs.A("fn", fn), obs.A("engine", "parallel"),
		obs.AI("chunks", int64(chunks)), obs.AI("workers", int64(workers)))
	sp.Charge(ticks)
	defer sp.End()
	db.decide(obs.NoteParallel, 1)
	db.met.passTicks.Observe(ticks)
	switch fn {
	case "count", "sum", "mean", "variance", "sd", "min", "max":
		m := exec.ColumnMoments(p, xs, valid, db.chunk)
		if fn == "count" {
			return float64(m.N), nil
		}
		if m.N < 2 {
			// Degenerate columns take the serial path so error text and
			// empty-column semantics match builtinScalar exactly.
			return builtinScalar(fn, xs, valid)
		}
		switch fn {
		case "sum":
			return m.Sum, nil
		case "mean":
			return m.MeanValue()
		case "variance":
			return m.Variance()
		case "sd":
			return m.SD()
		case "min":
			lo, _, err := m.Extremes()
			return lo, err
		case "max":
			_, hi, err := m.Extremes()
			return hi, err
		}
	case "median":
		return stats.QuantileChunks(p, xs, valid, db.chunk, 0.5)
	case "q1":
		return stats.QuantileChunks(p, xs, valid, db.chunk, 0.25)
	case "q3":
		return stats.QuantileChunks(p, xs, valid, db.chunk, 0.75)
	case "unique":
		return float64(stats.UniqueCountChunks(p, xs, valid, db.chunk)), nil
	case "mode":
		m, _, err := stats.ModeChunks(p, xs, valid, db.chunk)
		return m, err
	}
	return builtinScalar(fn, xs, valid)
}
