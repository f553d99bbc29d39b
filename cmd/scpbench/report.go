package main

// The bench report and its gates. Every experiment that persists a
// report wraps its payload in one envelope — the experiment id, the
// machine it ran on, and the verdict of each gate — and hands it to
// finish, the one writer. Gates are data: a payload path, the layer it
// guards, and a rule. checkGates evaluates them all the same way.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// report is the envelope of every BENCH_*.json.
type report struct {
	Experiment string       `json:"experiment"`
	Env        env          `json:"env"`
	Gates      []gateResult `json:"gates,omitempty"`
	Result     any          `json:"result"`
}

// env records the machine and tree a report was measured on, so a
// baseline says where its wall times came from.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: runtime.GOARCH, Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// gateKind is a gate's rule.
type gateKind int

const (
	atLeast    gateKind = iota // value ≥ limit
	atMost                     // value ≤ limit
	maxRatio                   // value ≤ limit × baseline
	baseSlack                  // value ≥ baseline − limit
	sameAsBase                 // value = baseline, exactly
)

// gate is one check on a report's payload. Path is dotted into the
// payload's JSON: a field name, "*" for every element of an array
// (matched to the baseline's by position), or "key=value" for the
// element whose key field has that value.
type gate struct {
	Layer string // the layer it guards, named as in spans and /metrics
	Path  string
	Kind  gateKind
	Limit float64
}

// gateResult is one gate's verdict on one value.
type gateResult struct {
	Gate   string `json:"gate"`
	Layer  string `json:"layer"`
	Rule   string `json:"rule"`
	Got    any    `json:"got"`
	Status string `json:"status"` // pass, fail, or skip (no baseline to compare with)
}

// finish checks the experiment's gates, writes its report to -bench-out
// (a failing gate still writes it, so the failing numbers are kept) and
// hands it to -json. The gates are enforced when -baseline names a
// committed report: without one, the gates relative to a baseline are
// skipped and the others are recorded but do not fail the run.
func finish(exp string, result any, gates []gate) error {
	var base any
	if baselineFile != "" {
		var err error
		if base, err = loadBaseline(baselineFile, exp); err != nil {
			return err
		}
	}
	// The payload is compared in the generic JSON form its baseline
	// is read back in.
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	var got any
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	rep := report{Experiment: exp, Env: currentEnv(), Gates: checkGates(gates, got, base), Result: result}

	var rows [][]string
	var failed []string
	for _, g := range rep.Gates {
		rows = append(rows, []string{g.Status, g.Layer, g.Gate, show(g.Got), g.Rule})
		if g.Status == "fail" {
			failed = append(failed, fmt.Sprintf("%s [%s] = %s, want %s", g.Gate, g.Layer, show(g.Got), g.Rule))
		}
	}
	fmt.Println()
	printTable([]string{"status", "layer", "gate", "got", "rule"}, rows)
	if benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nbenchmark report written to %s\n", benchOut)
	}
	jsonReport = rep
	if base != nil && len(failed) > 0 {
		return fmt.Errorf("%d of %d gate checks failed: %s", len(failed), len(rep.Gates), strings.Join(failed, "; "))
	}
	return nil
}

// loadBaseline reads a committed report and returns its payload as
// generic JSON.
func loadBaseline(path, exp string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Result     any    `json:"result"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if rep.Experiment != exp || rep.Result == nil {
		return nil, fmt.Errorf("baseline %s is not a %s report", path, exp)
	}
	return rep.Result, nil
}

// checkGates evaluates every gate on the payload got, against the
// baseline payload base (nil: none).
func checkGates(gates []gate, got, base any) []gateResult {
	var out []gateResult
	for _, g := range gates {
		relative := g.Kind > atMost
		leaves, err := resolve(got, g.Path)
		var baseLeaves []leaf
		if err == nil && relative && base != nil {
			if baseLeaves, err = resolve(base, g.Path); err == nil && len(baseLeaves) != len(leaves) {
				err = fmt.Errorf("%s: %d values, baseline %d", g.Path, len(leaves), len(baseLeaves))
			}
		}
		if err != nil {
			out = append(out, gateResult{Gate: g.Path, Layer: g.Layer, Rule: err.Error(), Status: "fail"})
			continue
		}
		for i, l := range leaves {
			r := gateResult{Gate: l.path, Layer: g.Layer, Got: l.v, Rule: "no baseline", Status: "skip"}
			if !relative {
				r.Rule, r.Status = g.judge(l.v, nil)
			} else if base != nil {
				r.Rule, r.Status = g.judge(l.v, baseLeaves[i].v)
			}
			out = append(out, r)
		}
	}
	return out
}

// judge applies the gate's rule to the value v, whose baseline value is
// b, and returns the rule as text and the verdict.
func (g gate) judge(v, b any) (rule, status string) {
	x, ok := v.(float64)
	y, okb := b.(float64)
	var pass bool
	switch g.Kind {
	case atLeast:
		rule, pass = fmt.Sprintf("≥ %g", g.Limit), ok && x >= g.Limit
	case atMost:
		rule, pass = fmt.Sprintf("≤ %g", g.Limit), ok && x <= g.Limit
	case maxRatio:
		rule, pass = fmt.Sprintf("≤ %g × baseline %s", g.Limit, show(b)), ok && okb && x <= g.Limit*y
	case baseSlack:
		rule, pass = fmt.Sprintf("≥ baseline %s − %g", show(b), g.Limit), ok && okb && x >= y-g.Limit
	case sameAsBase:
		rule, pass = "= baseline "+show(b), reflect.DeepEqual(v, b)
	}
	if pass {
		return rule, "pass"
	}
	return rule, "fail"
}

// leaf is one value a gate path resolved to, under its concrete path.
type leaf struct {
	path string
	v    any
}

// resolve follows a gate path through generic JSON.
func resolve(v any, path string) ([]leaf, error) {
	leaves := []leaf{{"", v}}
	for _, seg := range strings.Split(path, ".") {
		var next []leaf
		for _, l := range leaves {
			at := func(name string, v any) {
				p := name
				if l.path != "" {
					p = l.path + "." + name
				}
				next = append(next, leaf{p, v})
			}
			switch x := l.v.(type) {
			case map[string]any:
				fv, ok := x[seg]
				if !ok {
					return nil, fmt.Errorf("%s: no field %q", path, seg)
				}
				at(seg, fv)
			case []any:
				if seg == "*" {
					for i, e := range x {
						at(strconv.Itoa(i), e)
					}
				} else if key, want, ok := strings.Cut(seg, "="); ok {
					i := slices.IndexFunc(x, func(e any) bool {
						m, ok := e.(map[string]any)
						return ok && fmt.Sprint(m[key]) == want
					})
					if i < 0 {
						return nil, fmt.Errorf("%s: no element with %s", path, seg)
					}
					at(seg, x[i])
				} else {
					return nil, fmt.Errorf("%s: no element %q", path, seg)
				}
			default:
				return nil, fmt.Errorf("%s: %q is not an object or array", path, l.path)
			}
		}
		leaves = next
	}
	return leaves, nil
}

// show renders a JSON value; numbers print in full, not in e-notation.
func show(v any) string {
	if x, ok := v.(float64); ok {
		return strconv.FormatFloat(x, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}

// percentile is the exact q-quantile of raw samples by nearest rank
// (rounding down); it sorts a copy.
func percentile[T cmp.Ordered](samples []T, q float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}
