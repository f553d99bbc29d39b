package main

import (
	"errors"
	"fmt"

	"copycat"
	"copycat/internal/docmodel"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/session"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// interactive is the paper's user loop on the 1x demo world, one task
// per op: a fresh standalone session pastes a pair of shelters from the
// table-style site and commits the generalized rows, pastes and commits
// two contacts rows, takes the first column suggestions (cold) and then
// runs feedback → refresh rounds the plan cache mostly serves.
type interactive struct {
	factory session.Factory
	world   *webworld.World
	// pairs are the seeded draw's inputs: every two shelters listed next
	// to each other in one city, less those screen leaves out.
	pairs [][2]webworld.Shelter
	// mistyped names the pairs screen left out of the draw because they
	// hit the known typing defect.
	mistyped []string
	// contactRows is how many data rows the contacts sheet has.
	contactRows int

	// twins holds the sampled tasks the warm≡cold check replays after
	// the timed phases: a uniform sample of every task of the run, kept
	// as a reservoir. Only client 0 touches it.
	twins []twinCase
	tasks int
	// open is the last task's session, kept until the next task starts,
	// as a user's finished session stays open: the live heap after the
	// timed phase holds the world and one session.
	open *session.State
}

// twinCase is one sampled task: its inputs and the digests of the
// suggestion lists the warm session showed.
type twinCase struct {
	in      taskInput
	digests []string
}

// taskInput is everything a task draws from the seed.
type taskInput struct {
	pair       [2]webworld.Shelter
	contactRow int // first of the two contacts rows pasted
}

const (
	// feedbackRounds is how many feedback → refresh rounds a task runs
	// after its first suggestions.
	feedbackRounds = 5
	// maxTwins is how many tasks a run samples for the warm≡cold check.
	maxTwins = 6
	// defectType is the type the known defect gives a pair's Shelter
	// column, after which the session offers no column suggestions.
	defectType = "PR-City"
)

func newInteractive() *interactive { return &interactive{} }

func (w *interactive) clients() int { return 1 }

func (w *interactive) setup() error {
	cfg := copycat.DefaultWorldConfig()
	w.factory = copycat.DemoFactory(cfg)
	w.world = webworld.Generate(cfg)
	w.pairs = nil
	for _, city := range w.world.Cities {
		in := w.world.SheltersIn(city.Name)
		for i := 0; i+1 < len(in); i++ {
			w.pairs = append(w.pairs, [2]webworld.Shelter{in[i], in[i+1]})
		}
	}
	w.contactRows = len(w.world.ContactsSpreadsheet().Grid()) - 1
	w.mistyped, w.twins, w.tasks, w.open = nil, nil, 0, nil
	// One warm-up task, outside the timed ops, pays the process's one-time
	// initialization, so every set-up after the first measures the
	// steady cost.
	c := quietClient()
	_, err := w.task(c, taskInput{pair: w.pairs[0], contactRow: 1}, false, false)
	return err
}

// screen runs one task per shelter pair, outside the timed set-up, and
// leaves out of the draw each pair that hits the known defect: the model
// learner types its Shelter column PR-City and the session offers no
// column suggestions (2 of the 24 pairs). The report names them. Any
// other failure is an error, so a new defect cannot hide here.
func (w *interactive) screen() error {
	c := quietClient()
	var keep [][2]webworld.Shelter
	for _, p := range w.pairs {
		_, err := w.task(c, taskInput{pair: p, contactRow: 1}, false, false)
		var oe *opError
		switch {
		case err == nil:
			keep = append(keep, p)
		case errors.As(err, &oe) && !oe.incorrect && shelterType(w.open) == defectType:
			w.mistyped = append(w.mistyped, p[0].Name+" / "+p[1].Name)
		default:
			return fmt.Errorf("shelters %q and %q: %w", p[0].Name, p[1].Name, err)
		}
	}
	w.pairs, w.open = keep, nil
	return nil
}

func (w *interactive) excluded() []string { return w.mistyped }

// shelterType is the semantic type of the first column of a session's
// active tab: the Shelter column once a task has switched to
// integration mode.
func shelterType(st *session.State) string {
	if st == nil {
		return ""
	}
	if schema := st.Workspace.ActiveTab().Schema; len(schema) > 0 {
		return schema[0].SemType
	}
	return ""
}

func (w *interactive) op(c *client) error {
	in := taskInput{
		pair:       w.pairs[c.rng.Intn(len(w.pairs))],
		contactRow: 1 + c.rng.Intn(w.contactRows-1),
	}
	// Reservoir sampling: task n takes a slot with probability
	// maxTwins/(n+1), so the kept tasks spread over the whole run.
	slot := w.tasks
	if slot >= maxTwins {
		slot = c.pick.Intn(w.tasks + 1)
	}
	w.tasks++
	w.open = nil
	sampled := slot < maxTwins
	digests, err := w.task(c, in, false, sampled)
	if err == nil && sampled {
		tc := twinCase{in: in, digests: digests}
		if slot < len(w.twins) {
			w.twins[slot] = tc
		} else {
			w.twins = append(w.twins, tc)
		}
	}
	return err
}

// task runs one user task. cold disables the plan cache (the twin);
// keep makes it return the digest of every suggestion list shown.
func (w *interactive) task(c *client, in taskInput, cold, keep bool) ([]string, error) {
	var st *session.State
	var err error
	c.call(callFactory, "session", "", func() { st, err = w.factory() })
	if err != nil {
		return nil, fmt.Errorf("session factory: %w", err)
	}
	ws := session.NewStandalone("perfbench", st).State().Workspace
	if cold {
		ws.PlanCache = nil
	} else {
		w.open = st
	}
	if c.t.on {
		ws.EnableTracing()
		c.t.adopt(ws.Trace())
		defer w.noteCounters(c, ws)
	}

	// Shelters: the generalization must find every shelter on the site.
	site := w.world.ShelterSite(webworld.StyleTable)
	browser := wrappers.NewBrowser(ws.Clip, site)
	a, b := in.pair[0], in.pair[1]
	var sel docmodel.Selection
	c.call(callCopyRows, "wrappers", "", func() {
		sel, err = browser.CopyRows([][]string{{a.Name, a.Street, a.City}, {b.Name, b.Street, b.City}})
	})
	if err != nil {
		return nil, fmt.Errorf("copy shelters: %w", err)
	}
	if err := w.pasteCommit(c, ws, sel); err != nil {
		return nil, fmt.Errorf("shelters: %w", err)
	}
	if err := checkRowCount("shelter generalization", len(ws.ActiveTab().Rows), len(w.world.Shelters)); err != nil {
		return nil, err
	}

	// Contacts: two seeded rows of the spreadsheet.
	sheet := w.world.ContactsSpreadsheet()
	grid := sheet.Grid()
	ws.SelectTab("Contacts")
	if err := w.pasteCommit(c, ws, copycat.Selection{Cells: grid[in.contactRow : in.contactRow+2], Doc: sheet}); err != nil {
		return nil, fmt.Errorf("contacts: %w", err)
	}
	if err := checkRowCount("contacts generalization", len(ws.ActiveTab().Rows), w.contactRows); err != nil {
		return nil, err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)

	var digests []string
	var comps []intlearn.Completion
	s, e := c.call(callRefresh, "workspace", roleSuggest, func() { comps = ws.RefreshColumnSuggestions() })
	if len(comps) == 0 {
		return nil, failed("no column suggestions for shelters %q and %q", a.Name, b.Name)
	}
	c.sample("suggest", e.Sub(s))
	if keep {
		digests = append(digests, digest(comps))
	}
	for r := 0; r < feedbackRounds; r++ {
		// The user accepts the top suggestion over the rest.
		s, _ := c.call(callAcceptComp, "mira", "", func() { ws.Int.AcceptCompletion(comps[0], comps[1:]) })
		_, e := c.call(callRefresh, "workspace", roleRerank, func() { comps = ws.RefreshColumnSuggestions() })
		if len(comps) == 0 {
			return nil, failed("feedback round %d emptied the suggestions", r)
		}
		c.sample("rerank", e.Sub(s))
		if keep {
			digests = append(digests, digest(comps))
		}
	}
	return digests, nil
}

// pasteCommit pastes a selection into the active tab and accepts the
// generalized rows.
func (w *interactive) pasteCommit(c *client, ws *workspace.Workspace, sel docmodel.Selection) error {
	var err error
	s, e := c.call(callPaste, "workspace", "", func() { err = ws.Paste(sel) })
	if err != nil {
		return fmt.Errorf("paste: %w", err)
	}
	c.sample("paste", e.Sub(s))
	s, e = c.call(callAcceptRows, "workspace", "", func() { err = ws.AcceptRows() })
	if err != nil {
		return fmt.Errorf("accept rows: %w", err)
	}
	c.sample("commit", e.Sub(s))
	return nil
}

// noteCounters adds a finished traced task's program counters (its
// session is fresh, so the totals are the task's own) and remembers its
// graph's edge kinds.
func (w *interactive) noteCounters(c *client, ws *workspace.Workspace) {
	addExecStats(c.t, engine.StatsSnapshot{}, ws.ExecStats.Snapshot())
	addSolverCounters(c.t, nil, ws.Metrics.Snapshot().Counters)
	c.t.noteEdges(ws.Int.Graph)
}

// verify replays each sampled task on a cold twin (plan cache off) and
// compares every suggestion list with the warm session's.
func (w *interactive) verify() []error {
	var bad []error
	for _, tc := range w.twins {
		c := quietClient()
		cold, err := w.task(c, tc.in, true, true)
		if err == nil {
			err = checkDigests(tc.digests, cold)
		}
		if err != nil {
			bad = append(bad, fmt.Errorf("cold twin of shelters %q and %q: %w", tc.in.pair[0].Name, tc.in.pair[1].Name, err))
		}
	}
	return bad
}

func (w *interactive) gauges() map[string]float64 {
	return map[string]float64{"workspace.mistyped_pairs": float64(len(w.mistyped))}
}

func (w *interactive) counters() map[string]float64 { return nil }

func (w *interactive) close() { *w = interactive{} }

// addExecStats adds the engine counter deltas between two snapshots.
func addExecStats(t *tracer, before, after engine.StatsSnapshot) {
	t.add(cRowsIn, float64(after.RowsIn-before.RowsIn))
	t.add(cRowsOut, float64(after.RowsOut-before.RowsOut))
	t.add(cSvcCalls, float64(after.ServiceCalls-before.ServiceCalls))
	t.add(cSvcHits, float64(after.ServiceCacheHits-before.ServiceCacheHits))
	t.add(cTreesPruned, float64(after.TreesPruned-before.TreesPruned))
	t.add(cCandidatesRun, float64(after.CandidatesRun-before.CandidatesRun))
	t.add(cPlansReused, float64(after.PlansReused-before.PlansReused))
	t.add(cPlansInvalid, float64(after.PlansInvalidated-before.PlansInvalidated))
}

// addSolverCounters adds the deltas of the search tier and background
// refine counters the program keeps in its metrics registry.
func addSolverCounters(t *tracer, before, after map[string]int64) {
	for _, k := range []string{cTierExact, cTierTiered, cTierHeuristic, cRefineCompleted, cRefineFailed} {
		t.add(k, float64(after[k]-before[k]))
	}
}
