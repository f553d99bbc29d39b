package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"copycat"
	"copycat/internal/intlearn"
	"copycat/internal/session"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// churn is a durable multi-tenant host whose fleet outgrows its memory
// budget: two clients, each owning half the sessions, attach a seeded
// session, take suggestions, give one piece of feedback, take the
// re-ranked suggestions and release it. Releases evict idle sessions to
// snapshot files; attaches of evicted sessions reload them.
type churn struct {
	tmp string // parent of the store directories

	dir   string
	world *webworld.World
	host  *session.Manager
	store *session.FileStore
	// built maps each state the factory returned to when it was built,
	// so the caller whose attach triggered a reload can account for it.
	built sync.Map // *session.State → [2]time.Time
	ids   [][]string
	// history holds, per client, what each of its sessions showed at its
	// last release.
	history []map[string]*served
}

// served is one session's record on the client that owns it.
type served struct {
	ops    int
	digest string // of the suggestion list at the last release
}

const (
	churnClients  = 2
	churnSessions = 32
	// churnBudget keeps about half the fleet resident.
	churnBudget = 2 << 20
)

func newChurn(tmp string) *churn { return &churn{tmp: tmp} }

func (w *churn) clients() int { return churnClients }

// setup builds a fresh durable host over a new store directory and
// creates and seeds the fleet, tenants round-robin.
func (w *churn) setup() error {
	dir, err := os.MkdirTemp(w.tmp, "churn-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.store, err = session.NewFileStore(dir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	cfg := copycat.DefaultWorldConfig()
	w.world = webworld.Generate(cfg)
	factory := copycat.DemoFactory(cfg)
	w.host = session.NewManager(session.Config{
		Factory: func() (*session.State, error) {
			start := time.Now()
			st, err := factory()
			if err == nil {
				w.built.Store(st, [2]time.Time{start, time.Now()})
			}
			return st, err
		},
		Store:        w.store,
		MemoryBudget: churnBudget,
	})
	w.ids = make([][]string, churnClients)
	w.history = make([]map[string]*served, churnClients)
	for i := range w.history {
		w.history[i] = map[string]*served{}
	}
	for i := 0; i < churnSessions; i++ {
		s, err := w.host.Create(fmt.Sprintf("tenant%02d", i%8))
		if errors.Is(err, session.ErrOverloaded) || errors.Is(err, session.ErrCapacity) {
			// A shed create shrinks the fleet; session.shed reports it.
			continue
		}
		if err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		w.built.Delete(s.State())
		err = seedSession(w.world, s.State().Workspace)
		s.Release()
		if err != nil {
			return fmt.Errorf("seed session %d: %w", i, err)
		}
		w.ids[i%churnClients] = append(w.ids[i%churnClients], s.ID())
	}
	for i, ids := range w.ids {
		if len(ids) == 0 {
			return fmt.Errorf("client %d owns no session: every create was shed", i)
		}
	}
	return nil
}

// seedSession drives a new session to integration mode the way the
// capacity experiment does: paste two shelters and accept the
// generalized rows, import two contacts rows, switch modes.
func seedSession(world *webworld.World, ws *workspace.Workspace) error {
	browser := wrappers.NewBrowser(ws.Clip, world.ShelterSite(webworld.StyleTable))
	a, b := world.Shelters[0], world.Shelters[1]
	sel, err := browser.CopyRows([][]string{{a.Name, a.Street, a.City}, {b.Name, b.Street, b.City}})
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	sheet := world.ContactsSpreadsheet()
	ws.SelectTab("Contacts")
	if err := ws.Paste(copycat.Selection{Cells: sheet.Grid()[1:3], Doc: sheet}); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)
	return nil
}

func (w *churn) op(c *client) error {
	ids := w.ids[c.id]
	id := ids[c.rng.Intn(len(ids))]
	start := time.Now()
	s, err := w.host.Acquire(id)
	end := time.Now()
	if err != nil {
		c.t.record(callAcquire, "session", "", start, end)
		return fmt.Errorf("attach %s: %w", id, err)
	}
	c.sample("attach", end.Sub(start))
	// The attach reloaded the session exactly when the factory built the
	// state it now holds; the build then nests under the attach.
	st := s.State()
	if b, ok := w.built.LoadAndDelete(st); ok {
		at := b.([2]time.Time)
		acq := c.t.record(callAcquire, "session", roleReload, start, end)
		c.t.recordUnder(acq, callFactory, "session", "", at[0], at[1])
	} else {
		c.t.record(callAcquire, "session", roleResident, start, end)
	}
	ws := st.Workspace
	if c.t.on {
		ws.EnableTracing()
		c.t.adopt(ws.Trace())
		stats0 := ws.ExecStats.Snapshot()
		counters0 := ws.Metrics.Snapshot().Counters
		err = w.serve(c, id, ws)
		addExecStats(c.t, stats0, ws.ExecStats.Snapshot())
		addSolverCounters(c.t, counters0, ws.Metrics.Snapshot().Counters)
		c.t.noteEdges(ws.Int.Graph)
		ws.DisableTracing()
	} else {
		err = w.serve(c, id, ws)
	}
	c.call(callRelease, "session", "", s.Release)
	if c.t.on {
		c.t.add(cResidentSum, float64(w.host.Stats().Resident))
		c.t.add(cResidentN, 1)
	}
	return err
}

// serve is the attached part of an op: suggestions, one feedback, the
// re-ranked suggestions.
func (w *churn) serve(c *client, id string, ws *workspace.Workspace) error {
	var comps []intlearn.Completion
	s, e := c.call(callRefresh, "workspace", roleSuggest, func() { comps = ws.RefreshColumnSuggestions() })
	if len(comps) == 0 {
		return failed("session %s: no suggestions after attach", id)
	}
	c.sample("suggest", e.Sub(s))
	h := w.history[c.id][id]
	if h == nil {
		h = &served{}
		w.history[c.id][id] = h
	}
	if h.ops > 0 {
		if err := checkReattach(h.digest, digest(comps)); err != nil {
			return fmt.Errorf("session %s: %w", id, err)
		}
	}
	// The user prefers the runner-up to the top suggestion: the two swap
	// places every op, so the re-rank re-executes the candidates the two
	// edges feed and every snapshot carries weights the next attach must
	// restore.
	chosen, alts := comps[0], comps[:0]
	if len(comps) >= 2 {
		chosen, alts = comps[1], comps[:1]
	}
	s, _ = c.call(callAcceptComp, "mira", "", func() { ws.Int.AcceptCompletion(chosen, alts) })
	_, e = c.call(callRefresh, "workspace", roleRerank, func() { comps = ws.RefreshColumnSuggestions() })
	if len(comps) == 0 {
		return failed("session %s: feedback emptied the suggestions", id)
	}
	c.sample("rerank", e.Sub(s))
	h.ops++
	h.digest = digest(comps)
	return nil
}

func (w *churn) verify() []error { return nil }

// counters reads the host's lifecycle counters; the harness takes their
// deltas over the traced phases, as both clients move them at once.
func (w *churn) counters() map[string]float64 {
	st := w.host.Stats()
	return map[string]float64{cReloads: float64(st.Reloads), cEvictions: float64(st.Evictions)}
}

// gauges reads the host's shed count and the snapshot store's size.
func (w *churn) gauges() map[string]float64 {
	st := w.store.Stats()
	return map[string]float64{
		"session.shed":              float64(w.host.Stats().Rejected),
		"persist.snapshot_kb":       ratio(float64(st.DiskBytes)/1024, float64(st.Snapshots)),
		"persist.compression_ratio": st.CompressionRatio(),
	}
}

// close drops the host and removes its store directory.
func (w *churn) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	*w = churn{tmp: w.tmp}
}
