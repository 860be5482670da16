package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureCases lists the fixture trees under testdata/src. Each is a
// miniature module root whose package paths mirror the real tree, so
// the path-conditional rules see realistic directories.
var fixtureCases = []string{
	"obsconfine",
	"nopanic",
	"determinism",
	"sentinel",
	"goroutine",
	"loadclock",
	"metricnames",
	"spanbalance",
	"suppress",
	"lockconfine",
	"chargetrack",
	"errorflow",
	"stmtsnapshot",
}

func runFixture(t *testing.T, name string) []Finding {
	t.Helper()
	tree, err := Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return Run(tree, DefaultRules())
}

func render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixturesGolden checks every fixture tree against its golden
// findings file — the same deterministic text statdb-vet prints.
func TestFixturesGolden(t *testing.T) {
	for _, name := range fixtureCases {
		t.Run(name, func(t *testing.T) {
			got := render(runFixture(t, name))
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden: %v (run go test ./internal/analysis -update)", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if got == "" {
				t.Errorf("fixture %s produced no findings; each fixture must demonstrate its rule", name)
			}
		})
	}
}

// TestRepoTreeClean runs the full rule set over the real repository:
// the tree must be finding-free, which is exactly what `make lint`
// enforces.
func TestRepoTreeClean(t *testing.T) {
	tree, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumFiles() < 50 {
		t.Fatalf("loaded only %d files; root detection is off", tree.NumFiles())
	}
	for _, f := range Run(tree, DefaultRules()) {
		t.Errorf("repo tree not clean: %s", f)
	}
}

// TestSuppressionPlacement pins the two legal directive placements:
// trailing on the finding's line and alone on the line above.
func TestSuppressionPlacement(t *testing.T) {
	fs := runFixture(t, "suppress")
	for _, f := range fs {
		if f.Rule == "no-panic" && (strings.Contains(f.Msg, "boot") || f.Line < 10) {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
	var missingReason, unused, unknown, kept bool
	for _, f := range fs {
		switch {
		case f.Rule == directiveRule && strings.Contains(f.Msg, "needs a reason"):
			missingReason = true
		case f.Rule == directiveRule && strings.Contains(f.Msg, "unused"):
			unused = true
		case f.Rule == directiveRule && strings.Contains(f.Msg, "unknown rule"):
			unknown = true
		case f.Rule == "no-panic":
			kept = true
		}
	}
	if !missingReason || !unused || !unknown || !kept {
		t.Errorf("directive findings incomplete: missingReason=%v unused=%v unknown=%v keptPanic=%v\n%s",
			missingReason, unused, unknown, kept, render(fs))
	}
}

// TestRuleDocs makes sure every rule carries an ID and a doc line for
// statdb-vet -rules.
func TestRuleDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range DefaultRules() {
		if r.ID() == "" || r.Doc() == "" {
			t.Errorf("rule %T missing ID or Doc", r)
		}
		if seen[r.ID()] {
			t.Errorf("duplicate rule id %s", r.ID())
		}
		seen[r.ID()] = true
	}
	if len(seen) < 10 {
		t.Errorf("want >= 10 rules, have %d", len(seen))
	}
}

// TestLoadPatterns pins the pattern grammar the driver exposes.
func TestLoadPatterns(t *testing.T) {
	root := filepath.Join("testdata", "src", "obsconfine")
	whole, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	one, err := Load(root, "internal/query")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Load(root, "internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if whole.NumFiles() != 3 || sub.NumFiles() != 3 || one.NumFiles() != 1 {
		t.Errorf("NumFiles: whole=%d sub=%d one=%d, want 3/3/1",
			whole.NumFiles(), sub.NumFiles(), one.NumFiles())
	}
	if _, err := Load(root, "no/such/dir"); err == nil {
		t.Error("Load of a missing dir succeeded")
	}
}

// TestMetricNameForm pins the canonical-name grammar.
func TestMetricNameForm(t *testing.T) {
	good := []string{"exec.chunks", "storage.pool.evict_write_failed", "e15.micro", "a", "a_b.c0"}
	bad := []string{"", "Exec.Chunks", "exec..chunks", ".exec", "exec.", "exec-chunks", "exec chunks"}
	for _, n := range good {
		if !metricNameForm.MatchString(n) {
			t.Errorf("canonical name %q rejected", n)
		}
	}
	for _, n := range bad {
		if metricNameForm.MatchString(n) {
			t.Errorf("non-canonical name %q accepted", n)
		}
	}
}
