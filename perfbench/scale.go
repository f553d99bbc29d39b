package main

import (
	"context"
	"fmt"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/obs"
	"copycat/internal/plancache"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// scale is the integration-query search on the 100x world: every
// stitching chain is loaded as fragment sources, and each op explains a
// seeded set of a chain's fragments with the top queries (first answer
// from the tiered solver, exact answer once the background refine
// lands), accepts the ground-truth chain query, re-ranks, and executes
// that query.
type scale struct {
	world *webworld.World
	lrn   *intlearn.Learner
	// base holds every edge's weight as set up, so each op starts from
	// the same ranking: an op's feedback is undone after it.
	base map[string]float64
}

const (
	scaleFactor = 100
	topK        = 3
)

func newScale() *scale { return &scale{} }

func (w *scale) clients() int { return 1 }

// setup generates the scaled world and loads every chain as a catalog
// plus source graph: fresh chain hops at cost 0.6, the stale mirror's
// shortcut at 0.45 a hop. One warm-up solve pays the graph compilation.
func (w *scale) setup() error {
	w.world = webworld.Generate(webworld.ScaledConfig(scaleFactor))
	if len(w.world.Chains) == 0 {
		return fmt.Errorf("the %dx world has no stitching chains", scaleFactor)
	}
	cat := catalog.New()
	g := sourcegraph.New(cat)
	for _, ch := range w.world.Chains {
		for _, rel := range ch.Rels {
			cat.AddRelation(relation(rel), "fragment")
		}
		cat.AddRelation(relation(ch.Decoy), "stale-mirror")
		for i := 0; i+1 < len(ch.Rels); i++ {
			key := ch.Rels[i].Cols[len(ch.Rels[i].Cols)-1]
			g.AddEdge(sourcegraph.Edge{From: ch.Rels[i].Name, To: ch.Rels[i+1].Name,
				Kind: sourcegraph.KindJoin, FromCols: []string{key}, ToCols: []string{key}, Cost: 0.6})
		}
		first, last := ch.Rels[0], ch.Rels[len(ch.Rels)-1]
		g.AddEdge(sourcegraph.Edge{From: first.Name, To: ch.Decoy.Name,
			Kind: sourcegraph.KindJoin, FromCols: []string{ch.Decoy.Cols[0]}, ToCols: []string{ch.Decoy.Cols[0]}, Cost: 0.45})
		g.AddEdge(sourcegraph.Edge{From: ch.Decoy.Name, To: last.Name,
			Kind: sourcegraph.KindJoin, FromCols: []string{ch.Decoy.Cols[1]}, ToCols: []string{ch.Decoy.Cols[1]}, Cost: 0.45})
	}
	w.lrn = intlearn.New(g)
	var terms []string
	for _, rel := range w.world.Chains[0].Rels {
		terms = append(terms, rel.Name)
	}
	ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(8)))
	if _, err := w.lrn.TopQueriesCtx(ec, terms, topK); err != nil {
		return fmt.Errorf("warm-up search: %w", err)
	}
	w.lrn.WaitRefines()
	w.base = w.lrn.Mira.Snapshot()
	return nil
}

func relation(rel webworld.ChainRel) *table.Relation {
	r := table.NewRelation(rel.Name, table.NewSchema(rel.Cols...))
	for _, row := range rel.Rows {
		r.MustAppend(table.FromStrings(row))
	}
	return r
}

func (w *scale) op(c *client) error {
	ch := w.world.Chains[c.rng.Intn(len(w.world.Chains))]
	// Terminals: the first and last fragment and a seeded subset of the
	// middle ones, never the decoy; the ground truth is the whole chain.
	terms := []string{ch.Rels[0].Name, ch.Rels[len(ch.Rels)-1].Name}
	for _, rel := range ch.Rels[1 : len(ch.Rels)-1] {
		if c.rng.Intn(2) == 0 {
			terms = append(terms, rel.Name)
		}
	}
	var chain []string
	for _, rel := range ch.Rels {
		chain = append(chain, rel.Name)
	}
	want := chainName(chain)

	stats := engine.NewStats()
	reg := obs.NewRegistry()
	opts := []engine.ExecOption{engine.WithPlanCache(plancache.New(8)), engine.WithStats(stats), engine.WithMetrics(reg)}
	var tr *obs.Trace
	if c.t.on {
		tr = obs.NewTrace(nil)
		c.t.adopt(tr)
		opts = append(opts, engine.WithTrace(tr))
		defer func() {
			addExecStats(c.t, engine.StatsSnapshot{}, stats.Snapshot())
			addSolverCounters(c.t, nil, reg.Snapshot().Counters)
		}()
	}
	ec := engine.NewExecCtx(context.Background(), opts...)
	// Whichever way the op ends, its background refines end with it.
	defer w.lrn.WaitRefines()
	search := func(role string) ([]*intlearn.Query, time.Time, error) {
		// The search runs under a stage span, as the workspace's own
		// query search does, so the Steiner spans nest under it.
		ecs := ec
		if sp := tr.Start("search.queries", "stage"); sp != nil {
			ecs = ec.WithSpan(sp)
			defer sp.End()
		}
		var qs []*intlearn.Query
		var err error
		_, end := c.call(callTopQueries, "intlearn", role, func() { qs, err = w.lrn.TopQueriesCtx(ecs, terms, topK) })
		if err == nil && len(qs) == 0 {
			err = failed("search over %d terminals returned no query", len(terms))
		}
		return qs, end, err
	}

	issued := time.Now()
	first, end, err := search(roleFirst)
	if err != nil {
		return err
	}
	c.sample("query_first", end.Sub(issued))
	c.call(callWaitRefines, "intlearn", roleExact, w.lrn.WaitRefines)
	exact, end, err := search(roleExact)
	if err != nil {
		return err
	}
	c.sample("query_exact", end.Sub(issued))
	defer w.reset(exact)
	c.t.add(cTop1Total, 1)
	if queryName(first[0]) == queryName(exact[0]) {
		c.t.add(cTop1Agree, 1)
	}
	gt := findQuery(exact, want)
	if gt == nil {
		return incorrect("exact top-%d for %d terminals misses the ground-truth chain %s", topK, len(terms), want)
	}

	var alts []*intlearn.Query
	for _, q := range exact {
		if q != gt {
			alts = append(alts, q)
		}
	}
	s, _ := c.call(callAcceptQuery, "mira", "", func() { w.lrn.AcceptQuery(gt, alts) })
	reranked, end, err := search(roleRerank)
	if err != nil {
		return err
	}
	c.sample("rerank", end.Sub(s))
	if err := checkTop1(reranked, want); err != nil {
		return err
	}

	var plan engine.Plan
	c.call(callCompile, "engine", "", func() { plan, err = w.lrn.CompileQuery(gt) })
	if err != nil {
		return fmt.Errorf("compile %s: %w", want, err)
	}
	var res *engine.Result
	c.call(callExecute, "engine", "", func() { res, err = plan.Execute(ec) })
	if err != nil {
		return fmt.Errorf("execute %s: %w", want, err)
	}
	if err := checkRowCount("chain query "+want, len(res.Rows), len(ch.Rels[0].Rows)); err != nil {
		return err
	}
	// The re-rank spawned another background refine; join it inside the
	// op so ops do not overlap.
	c.call(callWaitRefines, "intlearn", roleDrain, w.lrn.WaitRefines)
	return nil
}

// reset puts the weights the op's feedback may have moved back to their
// set-up values. A refine still running works on its own copy of the
// graph and weights, so it is unaffected.
func (w *scale) reset(qs []*intlearn.Query) {
	for _, q := range qs {
		for _, id := range q.EdgeIDs() {
			cost, ok := w.base[id]
			if !ok {
				cost = sourcegraph.DefaultCost
			}
			w.lrn.Mira.SetWeight(id, cost)
			w.lrn.Graph.SetCost(id, cost)
		}
	}
}

func (w *scale) verify() []error { return nil }

func (w *scale) gauges() map[string]float64 { return nil }

func (w *scale) counters() map[string]float64 { return nil }

func (w *scale) close() { *w = scale{} }
