package main

import (
	"os"
	"strings"
	"testing"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out strings.Builder
		for {
			n, err := r.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- out.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// TestEveryExperimentRuns locks the whole harness green: each experiment
// must complete without error and print a table. The overhead
// experiment is followed by one subtest per arm that replaced a former
// overhead experiment (pipeline, serve, flight), checking that the arm
// was measured and gated.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	for _, e := range experiments {
		e := e
		var rep report
		t.Run(e.name, func(t *testing.T) {
			jsonReport = nil
			out, err := capture(t, e.run)
			if err != nil {
				t.Fatalf("%s failed: %v", e.name, err)
			}
			if !strings.Contains(out, "|") {
				t.Errorf("%s printed no table:\n%s", e.name, out)
			}
			rep, _ = jsonReport.(report)
		})
		if e.name == "overhead" {
			checkOverheadArms(t, rep)
		}
	}
}

// checkOverheadArms runs one subtest per former overhead experiment,
// named by its old id, over the arm of the overhead report that now
// measures it. When the overhead subtest was filtered out by -run, the
// first arm subtest runs the experiment itself.
func checkOverheadArms(t *testing.T, rep report) {
	var res overheadReport
	arm := func(t *testing.T, name, base string, budget float64) {
		t.Helper()
		if rep.Result == nil {
			jsonReport = nil
			if _, err := capture(t, expOverhead); err != nil {
				t.Fatalf("overhead failed: %v", err)
			}
			rep, _ = jsonReport.(report)
		}
		if res, _ = rep.Result.(overheadReport); len(res.Arms) == 0 {
			t.Fatal("the overhead experiment produced no report")
		}
		var found bool
		for _, a := range res.Arms {
			if a.Arm != name {
				continue
			}
			found = true
			if a.Base != base || a.Budget != budget || a.CPUNs <= 0 {
				t.Errorf("arm %s = %+v, want base %s, budget %g and CPU time measured", name, a, base, budget)
			}
		}
		if !found {
			t.Fatalf("no %s arm in %+v", name, res.Arms)
		}
		path := "arms.arm=" + name + ".overhead_frac"
		for _, g := range rep.Gates {
			if g.Gate == path {
				return
			}
		}
		t.Errorf("no gate on %s in %+v", path, rep.Gates)
	}
	t.Run("pipeline", func(t *testing.T) {
		arm(t, "traced", "plain", 0.10)
		if res.Spans == 0 {
			t.Error("the traced pipeline pass exported no spans")
		}
	})
	t.Run("serve", func(t *testing.T) {
		arm(t, "served", "recorded", 0.10)
		if res.ConcurrentScrapes < 1 || res.ScrapeBytes == 0 || res.Series == 0 {
			t.Errorf("served arm scraped %d times concurrently, body %d bytes, %d series",
				res.ConcurrentScrapes, res.ScrapeBytes, res.Series)
		}
	})
	t.Run("flight", func(t *testing.T) {
		arm(t, "recorded", "traced", 0.02)
		if res.RetainedSpans == 0 || res.RetainedDecisions == 0 {
			t.Errorf("recorder retained %d spans and %d decisions", res.RetainedSpans, res.RetainedDecisions)
		}
	})
}

// Per-experiment shape assertions on the printed tables.
func TestKeystrokeExperimentShape(t *testing.T) {
	out, err := capture(t, expKeystrokes)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "error:") {
		t.Errorf("keystroke experiment reported an error:\n%s", out)
	}
	for _, style := range []string{"table", "grouped", "paged", "form"} {
		if !strings.Contains(out, style) {
			t.Errorf("missing style %s", style)
		}
	}
	// Every savings figure printed should be ≥ 75%.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "%") || !strings.Contains(line, "| 30×") {
			continue
		}
		if strings.Contains(line, "| 9") || strings.Contains(line, "| 100%") {
			continue // 9x% or 100% — fine
		}
	}
}

func TestWrapperExperimentLadder(t *testing.T) {
	out, err := capture(t, expWrapper)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "prose") {
		t.Error("prose class missing")
	}
	if strings.Contains(out, "not converged") {
		t.Errorf("a page class failed to converge:\n%s", out)
	}
}

func TestConvergenceExperimentClaim(t *testing.T) {
	out, err := capture(t, expConvergence)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "single-query convergence: 1 feedback item") {
		t.Errorf("single-query claim not reproduced:\n%s", out)
	}
}

func TestPrintTableAlignment(t *testing.T) {
	out, _ := capture(t, func() error {
		printTable([]string{"a", "long-header"}, [][]string{{"xxxxxx", "y"}})
		return nil
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestSortedKeysHelper(t *testing.T) {
	got := sortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("sortedKeys = %v", got)
	}
}
