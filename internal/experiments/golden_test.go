package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files (figures, work counters) with current output")

// TestGoldenFigures renders a deterministic reduced-trials figure set and
// diffs it against the checked-in golden file. The determinism suite
// (internal/check) guarantees identical seeds give identical metrics, so
// any diff here is a genuine behaviour change in the policies, the memory
// manager, or the harness — run with -update-golden after verifying the
// change is intended, and say why in the commit.
//
// ext1 and ext3 pin the fault plane: ext1 is the only figure with
// swap-targeted fault plans and ext3 the only one with file-targeted plans.
//
// The reduced parameters (2 trials, 0.2 scale) keep this at a couple of
// seconds; the full 25-trial output lives in testdata/figures_full.txt.
func TestGoldenFigures(t *testing.T) {
	r := NewRunner(Options{Trials: 2, Scale: 0.2, Seed: 0x5EED, Parallelism: 2})

	var b strings.Builder
	for _, id := range []string{"fig1", "fig2", "ext1", "ext3"} {
		fn, ok := Figures[id]
		if !ok {
			fn = Extensions[id]
		}
		res, err := fn(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(res.Render())
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_figures.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("figure output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, refresh with: go test ./internal/experiments -run TestGoldenFigures -update-golden", got, want)
	}
}
