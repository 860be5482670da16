package view

import (
	"fmt"
	"strings"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/tape"
)

// Builder materializes a concrete view from a raw archive file by a
// pipeline of relational operations (Section 2.3). Every step is recorded
// textually so the Management Database can fingerprint the derivation and
// reject wasteful re-materializations.
type Builder struct {
	archive *tape.Archive
	mdb     *rules.ManagementDB
	source  string
	steps   []pipeStep
	ops     []string
	opts    Options
}

// pipeStep is one pipeline stage. Select and GroupBy stages also carry
// their typed arguments so Build can fuse a Select feeding a GroupBy
// into a selection-vector chain; every other stage only has run. The
// recorded ops strings are the same either way, so view fingerprints do
// not depend on whether fusion fired.
type pipeStep struct {
	run      func(*dataset.Dataset) (*dataset.Dataset, error)
	isSelect bool
	pred     relalg.Predicate
	isGroup  bool
	keys     []string
	aggs     []relalg.Agg
}

// NewBuilder starts a materialization from the named raw file.
func NewBuilder(archive *tape.Archive, mdb *rules.ManagementDB, source string) *Builder {
	return &Builder{archive: archive, mdb: mdb, source: source}
}

// WithOptions sets the view construction options.
func (b *Builder) WithOptions(opts Options) *Builder {
	b.opts = opts
	return b
}

// execPool returns the pool the pipeline steps run through, or nil for
// serial materialization. Steps consult it at Build time (not when the
// step is chained) because core applies WithOptions after the pipeline
// is assembled.
func (b *Builder) execPool() *exec.Pool {
	if b.opts.Parallelism > 1 {
		return exec.New(b.opts.Parallelism).WithMetrics(b.opts.Metrics).WithTracer(b.opts.Tracer)
	}
	return nil
}

// Select keeps rows satisfying pred. With Parallelism > 1 the rows of
// the materialized tape blocks are filtered through the execution pool
// (chunk-partitioned evaluation, order-preserving emit — the same rows
// as the serial operator).
func (b *Builder) Select(pred relalg.Predicate) *Builder {
	b.steps = append(b.steps, pipeStep{
		run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return relalg.SelectWith(b.execPool(), ds, pred, 0)
		},
		isSelect: true, pred: pred,
	})
	b.ops = append(b.ops, "select "+pred.String())
	return b
}

// Project keeps only the named attributes.
func (b *Builder) Project(names ...string) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Project(ds, names...)
	}})
	b.ops = append(b.ops, "project "+strings.Join(names, ","))
	return b
}

// Decode replaces a coded attribute with its label through its code table.
func (b *Builder) Decode(attr string) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Decode(ds, attr)
	}})
	b.ops = append(b.ops, "decode "+attr)
	return b
}

// GroupBy aggregates over the key attributes. With Parallelism > 1 the
// partitions are aggregated through the pool and merged in chunk order.
func (b *Builder) GroupBy(keys []string, aggs []relalg.Agg) *Builder {
	b.steps = append(b.steps, pipeStep{
		run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return relalg.GroupByWith(b.execPool(), ds, keys, aggs, 0)
		},
		isGroup: true, keys: keys, aggs: aggs,
	})
	desc := "group by " + strings.Join(keys, ",")
	for _, a := range aggs {
		desc += fmt.Sprintf(" %s(%s)", a.Func, a.Attr)
	}
	b.ops = append(b.ops, desc)
	return b
}

// Sort orders the rows.
func (b *Builder) Sort(keys ...relalg.SortKey) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Sort(ds, keys...)
	}})
	desc := "sort"
	for _, k := range keys {
		desc += " " + k.Attr
		if k.Desc {
			desc += " desc"
		}
	}
	b.ops = append(b.ops, desc)
	return b
}

// Ops returns the recorded derivation steps.
func (b *Builder) Ops() []string { return append([]string(nil), b.ops...) }

// Build reads the raw file from tape, applies the pipeline, and registers
// the result as analyst's concrete view called name. The expensive tape
// pass happens exactly once; afterwards the analyst works entirely
// against the materialized copy.
func (b *Builder) Build(name, analyst string) (*View, error) {
	def := rules.ViewDef{Name: name, Analyst: analyst, Source: b.source, Ops: b.Ops()}
	// Duplicate detection happens before the tape is touched, so a
	// rejected re-materialization costs nothing.
	ds, err := b.materialize(def)
	if err != nil {
		return nil, err
	}
	return New(ds, b.mdb, def, b.opts)
}

func (b *Builder) materialize(def rules.ViewDef) (*dataset.Dataset, error) {
	// Probe for duplicates first using a dry registration: RegisterView
	// both checks and records, so check manually via the fingerprint of
	// existing registered views.
	for _, existing := range b.mdb.Views() {
		v, _ := b.mdb.View(existing)
		if (v.Public || v.Analyst == def.Analyst) && v.Fingerprint() == def.Fingerprint() {
			return nil, &rules.ErrDuplicateView{Existing: v.Name, Analyst: v.Analyst}
		}
	}
	ds, err := b.archive.Materialize(b.source)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(b.steps); i++ {
		st := b.steps[i]
		// A Select feeding a GroupBy fuses into a selection-vector chain:
		// the predicate's survivors pass downstream as row ranges and the
		// intermediate data set is never materialized. The fold visits the
		// selected rows in the same ascending order, so the fused result
		// is identical to running the two steps apart.
		if st.isSelect && i+1 < len(b.steps) && b.steps[i+1].isGroup {
			g := b.steps[i+1]
			sel, serr := relalg.SelectVectorWith(b.execPool(), ds, st.pred, 0)
			if serr == nil {
				ds, serr = relalg.GroupBySelection(ds, sel, g.keys, g.aggs)
			}
			if serr != nil {
				return nil, fmt.Errorf("view: materialization step %d (%s): %w", i, b.ops[i], serr)
			}
			i++
			continue
		}
		ds, err = st.run(ds)
		if err != nil {
			return nil, fmt.Errorf("view: materialization step %d (%s): %w", i, b.ops[i], err)
		}
	}
	return ds, nil
}
