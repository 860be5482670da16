package analysis

import (
	"path/filepath"
	"runtime"
	"testing"
)

// graphTree is a two-package fixture exercising the resolution forms
// the interprocedural rules lean on: same-package calls, method calls
// through receivers and locals, cross-package calls through the import
// table, and go/defer edge marking.
func graphTree(t *testing.T) *Tree {
	t.Helper()
	return writeTree(t, map[string]string{
		"internal/shard/a.go": `package shard

import "statdb/internal/colstore"

type Store struct {
	file *colstore.File
}

func (s *Store) Read() ([]float64, error) {
	xs, _, err := s.file.NumericColumn("AGE") //lint:allow error-flow the valid mask is unused here
	return xs, err
}

func (s *Store) Spawn() {
	go s.helper()
	defer s.helper()
}

func (s *Store) helper() {}

func top() {
	s := &Store{}
	if _, err := s.Read(); err != nil {
		return
	}
}
`,
		"internal/colstore/file.go": `package colstore

type File struct{}

func (f *File) NumericColumn(col string) ([]float64, []bool, error) {
	return nil, nil, nil
}
`,
	})
}

func TestCallGraphResolution(t *testing.T) {
	g := graphTree(t).Graph()

	readKey := FuncKey{Pkg: "internal/shard", Recv: "Store", Name: "Read"}
	colKey := FuncKey{Pkg: "internal/colstore", Recv: "File", Name: "NumericColumn"}
	helperKey := FuncKey{Pkg: "internal/shard", Recv: "Store", Name: "helper"}

	if g.Funcs[readKey] == nil || g.Funcs[colKey] == nil {
		t.Fatalf("missing functions in graph: %v", g.SortedFuncs())
	}

	// Cross-package method call through the field's declared type.
	var toCol *CallSite
	for _, cs := range g.Funcs[readKey].Calls {
		if cs.Resolved && cs.Callee == colKey {
			toCol = cs
		}
	}
	if toCol == nil {
		t.Errorf("Store.Read -> colstore.File.NumericColumn edge not resolved")
	}

	// Same-package method call through a composite-literal local.
	topKey := FuncKey{Pkg: "internal/shard", Name: "top"}
	found := false
	for _, cs := range g.Funcs[topKey].Calls {
		if cs.Resolved && cs.Callee == readKey {
			found = true
		}
	}
	if !found {
		t.Errorf("top -> Store.Read edge not resolved through the local binding")
	}

	// go/defer edges carry their flags.
	var goEdge, deferEdge bool
	for _, cs := range g.Callers(helperKey) {
		if cs.Go {
			goEdge = true
		}
		if cs.Deferred {
			deferEdge = true
		}
	}
	if !goEdge || !deferEdge {
		t.Errorf("go/defer edges into helper not marked: go=%v defer=%v", goEdge, deferEdge)
	}
}

func TestSortedFuncsDeterministic(t *testing.T) {
	g := graphTree(t).Graph()
	a := g.SortedFuncs()
	b := g.SortedFuncs()
	if len(a) == 0 {
		t.Fatal("no functions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SortedFuncs not stable at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHoldsFixpoint(t *testing.T) {
	tree := writeTree(t, map[string]string{
		"internal/core/m.go": `package core

import "sync"

type R struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (r *R) Locked() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step()
}

func (r *R) step() { r.inner() }

func (r *R) inner() { r.n++ }

func (r *R) Bare() { r.inner() }
`,
	})
	g := tree.Graph()
	holds := g.Holds(LockKey{Type: TypeRef{Pkg: "internal/core", Name: "R"}, Field: "mu"})
	lockedKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "Locked"}
	stepKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "step"}
	innerKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "inner"}
	bareKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "Bare"}
	if !holds[lockedKey] || !holds[stepKey] {
		t.Errorf("Locked/step should hold mu: %v %v", holds[lockedKey], holds[stepKey])
	}
	if holds[bareKey] {
		t.Errorf("Bare acquires nothing and has no callers; it must not hold mu")
	}
	if holds[innerKey] {
		t.Errorf("inner is reachable from Bare without the lock; it must not hold mu")
	}
}

// BenchmarkFullTree measures a complete load + rule run over the real
// repository, serial (GOMAXPROCS=1) versus parallel, demonstrating the
// one-goroutine-per-package loader and per-rule fan-out pay off.
func BenchmarkFullTree(b *testing.B) {
	root := filepath.Join("..", "..")
	bench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, err := Load(root)
			if err != nil {
				b.Fatal(err)
			}
			if fs := Run(tree, DefaultRules()); len(fs) != 0 {
				b.Fatalf("repo tree not clean: %v", fs[0])
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		bench(b)
	})
	b.Run("parallel", bench)
}

// TestReachableUntil pins the frontier semantics: a stop function is
// itself reachable, but nothing only it calls is.
func TestReachableUntil(t *testing.T) {
	g := graphTree(t).Graph()
	top := FuncKey{Pkg: "internal/shard", Name: "top"}
	read := FuncKey{Pkg: "internal/shard", Recv: "Store", Name: "Read"}
	numeric := FuncKey{Pkg: "internal/colstore", Recv: "File", Name: "NumericColumn"}
	if all := g.Reachable([]FuncKey{top}); !all[read] || !all[numeric] {
		t.Fatalf("Reachable(top) = %v, want Read and NumericColumn", all)
	}
	cut := g.ReachableUntil([]FuncKey{top}, map[FuncKey]bool{read: true})
	if !cut[read] || cut[numeric] {
		t.Errorf("ReachableUntil(top, stop Read) = %v, want Read without NumericColumn", cut)
	}
}
