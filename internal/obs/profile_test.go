package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// profiledTree builds the canonical query tree: a root with a scan
// child (carrying rows/pages attrs) and a fold child with a nested
// merge. 3+40+7+2 = 52 ticks.
func profiledTree(tr *Tracer) *Span {
	q := tr.Begin("query")
	q.Charge(3)
	scan := tr.Begin("scan", AI("rows", 8), AI("pages", 2))
	scan.Charge(40)
	scan.End()
	fold := tr.Begin("fold")
	fold.Charge(7)
	inner := tr.Begin("merge")
	inner.Charge(2)
	inner.End()
	fold.End()
	q.End()
	return q
}

func TestFoldSpanConservesTicks(t *testing.T) {
	tr := NewTracer()
	q := profiledTree(tr)
	p := FoldSpan(q)
	if p.Queries != 1 {
		t.Errorf("queries = %d, want 1", p.Queries)
	}
	if p.Ticks != q.Total() {
		t.Errorf("profile ticks %d != root total %d", p.Ticks, q.Total())
	}
	// Site paths are the ;-joined span names; self/total per the tree.
	want := map[string]SiteStats{
		"query":            {Calls: 1, Self: 3, Total: 52},
		"query;scan":       {Calls: 1, Self: 40, Total: 40, Pages: 2, Rows: 8},
		"query;fold":       {Calls: 1, Self: 7, Total: 9},
		"query;fold;merge": {Calls: 1, Self: 2, Total: 2},
	}
	if len(p.Sites) != len(want) {
		t.Fatalf("sites = %v", p.Sites)
	}
	for path, w := range want {
		if got := p.Sites[path]; got == nil || *got != w {
			t.Errorf("site %q = %+v, want %+v", path, got, w)
		}
	}
	// The fold also conserves against the walked self sum — the same
	// invariant E18 asserts on the sharded tree.
	var sum int64
	for _, st := range p.Sites {
		sum += st.Self
	}
	if sum != p.Ticks {
		t.Errorf("site self sum %d != profile ticks %d", sum, p.Ticks)
	}
	if got := FoldSpan(nil); got.Queries != 0 || len(got.Sites) != 0 {
		t.Errorf("nil fold = %+v", got)
	}
}

func TestProfileMergeCommutes(t *testing.T) {
	tr := NewTracer()
	a := FoldSpan(profiledTree(tr))
	q := tr.Begin("query")
	q.Charge(10)
	s := tr.Begin("scan", AI("rows", 4))
	s.Charge(5)
	s.End()
	q.End()
	b := FoldSpan(q)

	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("merge not commutative:\nab=%+v\nba=%+v", ab, ba)
	}
	if ab.Queries != 2 || ab.Ticks != a.Ticks+b.Ticks {
		t.Errorf("merged totals = %d queries %d ticks", ab.Queries, ab.Ticks)
	}
	if st := ab.Sites["query;scan"]; st.Calls != 2 || st.Self != 45 || st.Rows != 12 {
		t.Errorf("merged query;scan = %+v", st)
	}
}

func TestProfileRenderings(t *testing.T) {
	tr := NewTracer()
	p := FoldSpan(profiledTree(tr))

	var top strings.Builder
	if err := p.WriteTop(&top, 2); err != nil {
		t.Fatal(err)
	}
	got := top.String()
	if !strings.Contains(got, "query;scan") || strings.Contains(got, "merge") {
		t.Errorf("top-2 kept the wrong sites:\n%s", got)
	}
	if !strings.Contains(got, "profile: 1 queries, 52 ticks") {
		t.Errorf("top footer missing:\n%s", got)
	}

	var folded strings.Builder
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "query 3\nquery;fold 7\nquery;fold;merge 2\nquery;scan 40\n"
	if folded.String() != want {
		t.Errorf("folded form:\n%s\nwant:\n%s", folded.String(), want)
	}

	var empty strings.Builder
	if err := NewProfile().WriteTop(&empty, 0); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "(empty profile)\n" {
		t.Errorf("empty top = %q", empty.String())
	}
}

func TestProfileRingEvictsAndMerges(t *testing.T) {
	tr := NewTracer()
	ring := NewProfileRing(2)
	for i := 0; i < 3; i++ {
		ring.Add("compute", FoldSpan(profiledTree(tr)))
	}
	ring.Add("update", FoldSpan(profiledTree(tr)))
	if got := ring.Verbs(); !reflect.DeepEqual(got, []string{"compute", "update"}) {
		t.Errorf("verbs = %v", got)
	}
	// Capacity 2: the third compute profile evicted the first.
	m := ring.Merged("compute")
	if m.Queries != 2 || m.Ticks != 104 {
		t.Errorf("merged compute = %d queries %d ticks, want 2/104", m.Queries, m.Ticks)
	}
	var b strings.Builder
	if err := ring.WriteText(&b, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "== verb compute ==") || !strings.Contains(b.String(), "== verb update ==") {
		t.Errorf("ring text:\n%s", b.String())
	}

	var nilRing *ProfileRing
	nilRing.Add("x", NewProfile())
	if nilRing.Verbs() != nil || nilRing.Merged("x").Queries != 0 {
		t.Error("nil ring not inert")
	}
}

// TestProfileRingConcurrentMerges is the -race hammer for the
// continuous profiler's shared surface: writers folding fresh span
// trees into the ring per verb while readers continuously merge and
// render — the /profilez path against a live query stream.
func TestProfileRingConcurrentMerges(t *testing.T) {
	ring := NewProfileRing(8)
	verbs := []string{"compute", "update", "materialize"}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			tr := NewTracer()
			for i := 0; i < 200; i++ {
				ring.Add(verbs[(g+i)%len(verbs)], FoldSpan(profiledTree(tr)))
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range ring.Verbs() {
					m := ring.Merged(v)
					if m.Ticks != 52*m.Queries {
						t.Errorf("verb %s: merged %d ticks over %d queries; partials torn", v, m.Ticks, m.Queries)
						return
					}
				}
				var b strings.Builder
				_ = ring.WriteText(&b, 3)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestNotesFoldIntoRecord checks the decision-note path end to end:
// notes land on the innermost open span (and are dropped with none
// open), FoldSpan sums them over the tree, Merge and Clone carry them,
// and NewQueryRecord turns them and the scan sites (not other sites
// carrying rows) into the record.
func TestNotesFoldIntoRecord(t *testing.T) {
	tr := NewTracer()
	tr.Note(NoteHit, 1) // no span open: dropped
	root := tr.Begin("query")
	tr.Note(NoteHit, 2)
	sc := tr.Begin("summary.scalar")
	tr.Note(NoteMiss, 1)
	tr.Begin("scan", AI("rows", 300)).End()
	tr.Begin("fold", A("engine", "parallel")).End()
	tr.Note(NoteParallel, 1)
	sc.End()
	other := tr.Begin("view.compute")
	tr.Begin("scan", AI("rows", 20)).End()
	tr.Begin("scanner", AI("rows", 5000)).End() // not a scan site
	other.End()
	root.End()

	p := FoldSpan(root)
	if p.Notes[NoteHit] != 2 || p.Notes[NoteMiss] != 1 || p.Notes[NoteParallel] != 1 {
		t.Errorf("folded notes %v", p.Notes)
	}
	rec := NewQueryRecord("q", p)
	want := QueryRecord{Query: "q", TotalTicks: 0, Rows: 320, CacheHits: 2, CacheMiss: 1,
		Strategy: "recompute", Engine: "parallel"}
	if *rec != want {
		t.Errorf("record %+v, want %+v", *rec, want)
	}
	m := p.Clone()
	m.Merge(p)
	if m.Notes[NoteHit] != 4 || p.Notes[NoteHit] != 2 {
		t.Errorf("merged clone notes %v, original %v", m.Notes, p.Notes)
	}
}
