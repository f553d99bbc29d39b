// Package intlearn implements CopyCat's integration learner (§4): it
// maintains the weighted source graph, proposes column auto-completions
// (promising associations from the current query's nodes, compiled into
// executable plans), explains user-pasted tuples as top-k Steiner-tree
// queries, and converts accept/reject feedback into MIRA ranking
// constraints that re-weight the graph's edges.
package intlearn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/linkage"
	"copycat/internal/mira"
	"copycat/internal/obs"
	"copycat/internal/plancache"
	"copycat/internal/provenance"
	"copycat/internal/sourcegraph"
	"copycat/internal/steiner"
	"copycat/internal/table"
)

// Query is a candidate integration query: a connected set of source-graph
// edges, scored by the additive cost model.
type Query struct {
	Edges []*sourcegraph.Edge
	Nodes []string
	Cost  float64
}

// EdgeIDs lists the MIRA features of the query.
func (q *Query) EdgeIDs() []string {
	out := make([]string, len(q.Edges))
	for i, e := range q.Edges {
		out[i] = e.ID
	}
	return out
}

// String renders the query compactly.
func (q *Query) String() string {
	return fmt.Sprintf("Query{%s @%.2f}", strings.Join(q.Nodes, "+"), q.Cost)
}

// Completion is one proposed column auto-completion: following an
// association edge from the current query to a new source or service.
type Completion struct {
	Edge    *sourcegraph.Edge
	Target  string // the node being added
	Plan    engine.Plan
	Result  *engine.Result
	NewCols []table.Column // columns the completion adds
	Cost    float64
}

// PartialNote describes a degraded completion — one whose plan skipped
// rows because service lookups kept failing transiently — for display
// next to the suggestion. It is empty for complete results.
func (c Completion) PartialNote() string {
	if c.Result == nil || c.Result.Degraded == 0 {
		return ""
	}
	return fmt.Sprintf("partial results (%d rows degraded)", c.Result.Degraded)
}

// CandidateDrop records a candidate completion whose plan failed to
// execute, and why — surfaced so a permanently-failing service shows up
// as an explained absence rather than a silently missing suggestion.
type CandidateDrop struct {
	Edge   string // source-graph edge id
	Target string // the node the candidate would have added
	Reason string // the execution error
}

// Learner is the integration learner.
type Learner struct {
	Graph  *sourcegraph.Graph
	Mira   *mira.Learner
	Linker *linkage.Linker
	// LinkThreshold gates record-link joins.
	LinkThreshold float64
	// MaxExactNodes switches Steiner search from the exact solver to the
	// SPCSH approximation above this node count (§4.2).
	MaxExactNodes int
	// PruneFrac is the non-promising-edge pruning fraction for SPCSH.
	PruneFrac float64
	// TierTerminals caps the terminal count answered inline by the exact
	// solver (Dreyfus–Wagner is exponential in terminals); at or above
	// it the tiered policy applies even on small graphs.
	TierTerminals int
	// RefineMaxNodes/RefineMaxTerminals bound the hybrid tier: when a
	// query is answered from SPCSH and the problem fits these limits (and
	// a plan cache is available to surface the re-rank), an exact top-k
	// refinement runs in the background.
	RefineMaxNodes     int
	RefineMaxTerminals int

	dropMu    sync.Mutex
	lastDrops []CandidateDrop // candidates dropped by the last completion pass

	// Cached Steiner compilation of the source graph (DESIGN.md §10).
	// Rebuilt when the graph gains edges or the catalog's node set moves;
	// weight-only changes (MIRA feedback) are patched in place via the
	// graph's per-edge dirty set. steinMu is held for the whole solve —
	// Lawler subproblems read the graph concurrently, so patching under a
	// narrower lock would race.
	steinMu     sync.Mutex
	steinG      *steiner.Graph
	steinIx     *steinerIndex
	steinGen    uint64 // source-graph generation the cached costs reflect
	steinStruct uint64 // struct generation the cached topology reflects
	steinCatVer uint64 // catalog version the cached node set reflects

	// lastFP remembers each candidate completion's most recent fingerprint
	// so a refresh can tell "new candidate" apart from "candidate whose
	// inputs moved" (the plans_invalidated counter).
	fpMu   sync.Mutex
	lastFP map[string]uint64

	// Background exact refinement (hybrid tier): one in-flight refine per
	// memo key, solving on a cloned Steiner graph so foreground weight
	// patches never race, publishing re-ranks through the plan cache.
	refineMu       sync.Mutex
	refineInFlight map[uint64]bool
	refineWG       sync.WaitGroup

	// Stream, when non-nil, receives a lifecycle event for every failed
	// background exact refinement (a flight-recorder trigger). The
	// refine goroutine captures it at spawn time, so a failure reports
	// to the stream that was current when its refresh started.
	Stream *obs.Stream
}

// LastDrops reports the candidates dropped (with reasons) by the most
// recent ColumnCompletionsCtx pass.
func (l *Learner) LastDrops() []CandidateDrop {
	l.dropMu.Lock()
	defer l.dropMu.Unlock()
	out := make([]CandidateDrop, len(l.lastDrops))
	copy(out, l.lastDrops)
	return out
}

// setDrops replaces the recorded drop list.
func (l *Learner) setDrops(d []CandidateDrop) {
	l.dropMu.Lock()
	l.lastDrops = d
	l.dropMu.Unlock()
}

// New creates a learner over a discovered source graph. Edges whose cost
// was externally assigned (differs from the default) seed the MIRA
// weights, so e.g. schema-matcher confidences carry into the ranking.
func New(g *sourcegraph.Graph) *Learner {
	l := &Learner{
		Graph:              g,
		Mira:               mira.New(sourcegraph.DefaultCost),
		Linker:             linkage.NewLinker(),
		LinkThreshold:      0.55,
		MaxExactNodes:      30,
		PruneFrac:          0.2,
		TierTerminals:      DefaultTierTerminals,
		RefineMaxNodes:     DefaultRefineMaxNodes,
		RefineMaxTerminals: DefaultRefineMaxTerminals,
	}
	for _, e := range g.Edges() {
		if e.Cost != sourcegraph.DefaultCost {
			l.Mira.SetWeight(e.ID, e.Cost)
		}
	}
	return l
}

// edgeCost reads the learned cost for an edge.
func (l *Learner) edgeCost(e *sourcegraph.Edge) float64 {
	return l.Mira.Weight(e.ID)
}

// syncCosts writes MIRA weights back onto the source graph so the next
// discovery/suggestion pass sees learned costs.
func (l *Learner) syncCosts() {
	for id, w := range l.Mira.Snapshot() {
		l.Graph.SetCost(id, w)
	}
}

// ---------------------------------------------------------------- plans

// ExtendPlan compiles "base followed by edge e" into a plan. base is the
// current query's result (e.g. the workspace contents); baseNode is the
// source-graph node base corresponds to (either endpoint of e).
func (l *Learner) ExtendPlan(base engine.Plan, baseNode string, e *sourcegraph.Edge) (engine.Plan, []table.Column, error) {
	target := e.Other(baseNode)
	cat := l.Graph.Catalog()
	src := cat.Get(target)
	if src == nil {
		return nil, nil, fmt.Errorf("intlearn: unknown source %q", target)
	}
	// The edge's columns are stated from e.From's perspective; orient.
	baseCols, targetCols := e.FromCols, e.ToCols
	if e.From != baseNode {
		baseCols, targetCols = e.ToCols, e.FromCols
	}
	baseIdx, err := resolveCols(base.Schema(), src, baseCols)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case src.Kind == catalog.KindService:
		dj := &engine.DependentJoin{Input: base, Svc: src.Svc, InputCols: baseIdx}
		return dj, src.OutputSchema(), nil
	case e.Kind == sourcegraph.KindRecordLink:
		scan, err := src.Scan()
		if err != nil {
			return nil, nil, err
		}
		tIdx, err := colIndexes(src.Schema, targetCols)
		if err != nil {
			return nil, nil, err
		}
		rl := &engine.RecordLinkJoin{
			Left: base, Right: scan,
			LeftCols: baseIdx, RightCols: tIdx,
			Sim: l.Linker.TupleSimilarity(), Threshold: l.LinkThreshold,
			BestOnly: true,
		}
		return rl, src.Schema, nil
	default: // equijoin / foreign key
		scan, err := src.Scan()
		if err != nil {
			return nil, nil, err
		}
		tIdx, err := colIndexes(src.Schema, targetCols)
		if err != nil {
			return nil, nil, err
		}
		hj := &engine.HashJoin{Left: base, Right: scan, LeftCols: baseIdx, RightCols: tIdx}
		return hj, src.Schema, nil
	}
}

// resolveCols maps edge column names onto the base plan's schema, falling
// back to semantic-type lookup when the workspace renamed a column.
func resolveCols(schema table.Schema, target *catalog.Source, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j := schema.Index(n)
		if j < 0 {
			// Fall back: find the base column whose semantic type matches
			// the corresponding target-side expectation.
			if st := semTypeOf(target.Schema, n); st != "" {
				j = schema.IndexBySemType(st)
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("intlearn: cannot resolve column %q in schema (%s)", n, schema)
		}
		out[i] = j
	}
	return out, nil
}

func semTypeOf(schema table.Schema, name string) string {
	if i := schema.Index(name); i >= 0 {
		return schema[i].SemType
	}
	return ""
}

func colIndexes(schema table.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j := schema.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("intlearn: no column %q in (%s)", n, schema)
		}
		out[i] = j
	}
	return out, nil
}

// ---------------------------------------------------------------- fingerprints

// basePlanFingerprint canonically hashes the base plan's visible state:
// relation name, schema (names, kinds, semantic types), and every row's
// values and provenance. Only *engine.Values bases — the workspace's
// materialized tab, which is what the suggestion pipeline always passes —
// are fingerprintable; for anything else result caching is disabled for
// the pass rather than risking a stale hit.
func basePlanFingerprint(base engine.Plan) (plancache.Fingerprint, bool) {
	v, ok := base.(*engine.Values)
	if !ok {
		return plancache.Fingerprint{}, false
	}
	f := plancache.NewFingerprint().String("base").String(v.Name)
	for _, c := range v.Schema_ {
		f = f.String(c.Name).Int(int(c.Kind)).String(c.SemType)
	}
	for _, a := range v.Rows {
		f = f.String(a.Row.Key())
		if a.Prov != nil {
			f = f.String(a.Prov.String())
		}
	}
	return f, true
}

// candidateFingerprint extends the base fingerprint with everything a
// candidate completion's result depends on: the edge's identity, kind and
// join columns, the node it extends from, the generation at which the
// edge's weight last moved (the dirty-set input: feedback that shifts the
// edge invalidates its plans), the target source's catalog version (a
// re-registered or re-typed source invalidates), and the link threshold
// for record-link joins.
func (l *Learner) candidateFingerprint(base plancache.Fingerprint, node string, e *sourcegraph.Edge, target string) uint64 {
	f := base.String("edge").String(e.ID).String(node).String(target).Int(int(e.Kind))
	for _, c := range e.FromCols {
		f = f.String(c)
	}
	for _, c := range e.ToCols {
		f = f.String(c)
	}
	return f.
		Uint64(l.Graph.EdgeGeneration(e.ID)).
		Uint64(l.Graph.Catalog().SourceVersion(target)).
		Uint64(math.Float64bits(l.LinkThreshold)).
		Sum()
}

// noteFingerprint records a candidate's current fingerprint and reports
// whether the candidate was seen before with a different one — i.e. its
// cached plan result just became stale.
func (l *Learner) noteFingerprint(key string, fp uint64) bool {
	l.fpMu.Lock()
	defer l.fpMu.Unlock()
	if l.lastFP == nil {
		l.lastFP = map[string]uint64{}
	}
	prev, ok := l.lastFP[key]
	l.lastFP[key] = fp
	return ok && prev != fp
}

// copyResult clones a result with a fresh outer Rows slice. The workspace
// splices suggestion rows in place on tuple-level feedback (demotion), so
// both directions of the plan cache — storing and serving — must hand out
// a slice whose backing array nobody else mutates.
func copyResult(r *engine.Result) *engine.Result {
	cp := *r
	cp.Rows = append([]provenance.Annotated(nil), r.Rows...)
	return &cp
}

// ---------------------------------------------------------------- column completions

// ColumnCompletions proposes auto-completions for the current query: every
// suggestable association from its nodes to a source not yet in the
// query, compiled and executed (§4.2's first mode; Figure 2's Zip column).
// Results come back best (cheapest) first. Compat wrapper over
// ColumnCompletionsCtx with a background execution context.
func (l *Learner) ColumnCompletions(base engine.Plan, baseNodes []string) []Completion {
	return l.ColumnCompletionsCtx(engine.Background(), base, baseNodes)
}

// ColumnCompletionsCtx is ColumnCompletions under an execution context.
// Candidate plans are gathered serially (compilation is cheap) and then
// executed concurrently by a bounded worker pool sharing ec — its
// deadline, row budget, service cache, and stats. Candidates that error,
// return no rows, or are cut off by cancellation are dropped; the
// survivors sort deterministically by (cost, edge id), so parallel and
// serial execution produce identical suggestion lists.
func (l *Learner) ColumnCompletionsCtx(ec *engine.ExecCtx, base engine.Plan, baseNodes []string) []Completion {
	if ec == nil {
		ec = engine.Background()
	}
	type candidate struct {
		edge    *sourcegraph.Edge
		target  string
		plan    engine.Plan
		newCols []table.Column
		cost    float64
		fp      uint64         // plan-cache key (valid only when cached-path enabled)
		cached  *engine.Result // non-nil: served from the plan cache, skip execution
	}
	in := map[string]bool{}
	for _, n := range baseNodes {
		in[n] = true
	}
	decisions := ec.Decisions()
	// Gather the edge lists up front so cands/results/seenTarget can be
	// sized to the total edge count — no append growth or map rehashing on
	// the refresh hot path.
	edgeLists := make([][]*sourcegraph.Edge, len(baseNodes))
	totalEdges := 0
	for i, node := range baseNodes {
		edgeLists[i] = l.Graph.EdgesAt(node)
		totalEdges += len(edgeLists[i])
	}
	seenTarget := make(map[string]bool, totalEdges)
	cands := make([]candidate, 0, totalEdges)
	cache := ec.PlanCache()
	var baseFP plancache.Fingerprint
	useCache := false
	if cache != nil {
		baseFP, useCache = basePlanFingerprint(base)
	}
	for i, node := range baseNodes {
		for _, e := range edgeLists[i] {
			cost := l.edgeCost(e)
			target := e.Other(node)
			if cost > sourcegraph.SuggestThreshold {
				// Decision strings are built only when a log is attached —
				// the Sprintf and key concatenation used to run even with
				// the log disabled.
				if decisions != nil && !in[target] {
					decisions.Record(obs.Decision{
						Stage: "suggest.columns", Candidate: e.ID + "→" + target,
						Action: obs.ActionPruned, Cost: cost, Rank: -1,
						Reason: fmt.Sprintf("edge cost %.2f above suggestion threshold %.2f", cost, sourcegraph.SuggestThreshold),
					})
				}
				continue
			}
			if in[target] || seenTarget[target+e.ID] {
				continue
			}
			seenTarget[target+e.ID] = true
			plan, newCols, err := l.ExtendPlan(base, node, e)
			if err != nil {
				if decisions != nil {
					decisions.Record(obs.Decision{
						Stage: "suggest.columns", Candidate: e.ID + "→" + target,
						Action: obs.ActionPruned, Cost: cost, Rank: -1,
						Reason: "plan compilation failed: " + err.Error(),
					})
				}
				continue
			}
			c := candidate{edge: e, target: target, plan: plan, newCols: newCols, cost: cost}
			if useCache {
				c.fp = l.candidateFingerprint(baseFP, node, e, target)
				changed := l.noteFingerprint(e.ID+"→"+target, c.fp)
				if v, ok := cache.Get(c.fp); ok {
					if res, isRes := v.(*engine.Result); isRes {
						c.cached = copyResult(res)
						ec.Stats().PlansReused.Add(1)
					}
				} else if changed {
					ec.Stats().PlansInvalidated.Add(1)
				}
			}
			cands = append(cands, c)
		}
	}
	results := make([]*engine.Result, len(cands))
	errs := make([]error, len(cands))
	misses := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].cached != nil {
			results[i] = cands[i].cached
		} else {
			misses = append(misses, i)
		}
	}
	// runOne executes candidate i under its own span lane (sharing the
	// parent's budget, cache, and stats) and times it into the
	// per-candidate latency histogram.
	runOne := func(i int) {
		ec.Stats().CandidatesRun.Add(1)
		ecc := ec
		sp := ec.StartSpan("execute.candidate:"+cands[i].edge.ID, "candidate")
		if sp != nil {
			sp.SetAttr("target", cands[i].target)
			ecc = ec.WithSpan(sp)
		}
		h := ec.Metrics().Histogram("latency.execute.candidate")
		var start time.Time
		if h != nil {
			start = ec.Now()
		}
		res, err := cands[i].plan.Execute(ecc)
		if h != nil {
			h.Observe(ec.Now().Sub(start))
		}
		if err == nil {
			results[i] = res
			sp.SetAttrInt("rows", int64(len(res.Rows)))
			// Cache complete results only: errored plans may recover
			// (transient service failures) and degraded ones are partial —
			// both must re-execute next refresh. Empty results are cached;
			// re-deriving "no rows" is as wasteful as re-deriving rows.
			if useCache && res.Degraded == 0 {
				cache.Put(cands[i].fp, copyResult(res))
			}
		} else {
			errs[i] = err
			if sp != nil {
				sp.SetAttr("error", err.Error())
			}
		}
		sp.End()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(misses) {
		workers = len(misses)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ec.Err() != nil {
						continue // drain remaining work after cancellation
					}
					runOne(i)
				}
			}()
		}
		for _, i := range misses {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for _, i := range misses {
			if ec.Err() != nil {
				break
			}
			runOne(i)
		}
	}
	out := make([]Completion, 0, len(cands))
	var drops []CandidateDrop
	for i, c := range cands {
		if errs[i] != nil {
			drops = append(drops, CandidateDrop{Edge: c.edge.ID, Target: c.target, Reason: errs[i].Error()})
			if decisions != nil {
				decisions.Record(obs.Decision{
					Stage: "suggest.columns", Candidate: c.edge.ID + "→" + c.target,
					Action: obs.ActionDropped, Cost: c.cost, Rank: -1,
					Reason: "execution failed: " + errs[i].Error(),
				})
			}
			continue
		}
		if results[i] == nil || len(results[i].Rows) == 0 {
			if decisions != nil {
				decisions.Record(obs.Decision{
					Stage: "suggest.columns", Candidate: c.edge.ID + "→" + c.target,
					Action: obs.ActionEmpty, Cost: c.cost, Rank: -1,
					Reason: "plan produced no rows",
				})
			}
			continue
		}
		out = append(out, Completion{
			Edge: c.edge, Target: c.target, Plan: c.plan, Result: results[i],
			NewCols: c.newCols, Cost: c.cost,
		})
	}
	sort.SliceStable(drops, func(i, j int) bool { return drops[i].Edge < drops[j].Edge })
	l.setDrops(drops)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Edge.ID < out[j].Edge.ID
	})
	if decisions != nil {
		for rank, c := range out {
			action, reason := obs.ActionSuggested, ""
			if c.Result != nil && c.Result.Degraded > 0 {
				action = obs.ActionDegraded
				reason = fmt.Sprintf("suggested with %d rows degraded by transient service failures", c.Result.Degraded)
			}
			decisions.Record(obs.Decision{
				Stage: "suggest.columns", Candidate: c.Edge.ID + "→" + c.Target,
				Action: action, Cost: c.Cost, Rank: rank, Reason: reason,
			})
		}
	}
	return out
}

// ---------------------------------------------------------------- Steiner queries

// steinerIndex maps between source-graph node names and steiner node ids.
type steinerIndex struct {
	names  []string
	idx    map[string]int
	edges  []*sourcegraph.Edge // steiner edge id → source-graph edge
	byEdge map[string]int      // source-graph edge id → steiner edge id
}

// buildSteiner converts the source graph (with learned costs) into a
// steiner.Graph.
func (l *Learner) buildSteiner() (*steiner.Graph, *steinerIndex) {
	cat := l.Graph.Catalog()
	names := cat.Names()
	ix := &steinerIndex{
		idx:    make(map[string]int, len(names)),
		byEdge: make(map[string]int, len(l.Graph.Edges())),
	}
	for _, name := range names {
		ix.idx[name] = len(ix.names)
		ix.names = append(ix.names, name)
	}
	g := steiner.NewGraph(len(ix.names))
	for _, e := range l.Graph.Edges() {
		u, okU := ix.idx[e.From]
		v, okV := ix.idx[e.To]
		if !okU || !okV {
			continue
		}
		cost := l.edgeCost(e)
		if cost < 0 {
			cost = 0
		}
		ix.byEdge[e.ID] = g.AddEdge(u, v, cost)
		ix.edges = append(ix.edges, e)
	}
	return g, ix
}

// steinerGraphLocked returns the learner's cached Steiner compilation,
// rebuilding it only when the topology moved (new edges from a paste, a
// source added to or dropped from the catalog) and patching edge costs in
// place when only weights changed since the last solve — the common case
// after accept/reject feedback. Callers must hold steinMu for the whole
// solve: Lawler subproblems read the graph from many goroutines.
func (l *Learner) steinerGraphLocked() (*steiner.Graph, *steinerIndex) {
	cat := l.Graph.Catalog()
	if l.steinG == nil || l.steinStruct != l.Graph.StructGeneration() || l.steinCatVer != cat.Version() {
		l.steinG, l.steinIx = l.buildSteiner()
		l.steinStruct = l.Graph.StructGeneration()
		l.steinGen = l.Graph.Generation()
		l.steinCatVer = cat.Version()
		return l.steinG, l.steinIx
	}
	if gen := l.Graph.Generation(); gen != l.steinGen {
		for _, e := range l.Graph.ChangedSince(l.steinGen) {
			id, ok := l.steinIx.byEdge[e.ID]
			if !ok {
				continue // edge endpoints were outside the catalog at build time
			}
			cost := l.edgeCost(e)
			if cost < 0 {
				cost = 0
			}
			l.steinG.SetEdgeCost(id, cost)
		}
		l.steinGen = gen
	}
	return l.steinG, l.steinIx
}

// TopQueries explains a set of terminal sources (the sources whose
// attributes appear in user-pasted tuples) as the k best Steiner-tree
// queries (§4.2's second mode). Small graphs use the exact solver; large
// ones the SPCSH approximation with pruning. Compat wrapper over
// TopQueriesCtx with a background execution context.
func (l *Learner) TopQueries(terminals []string, k int) ([]*Query, error) {
	return l.TopQueriesCtx(engine.Background(), terminals, k)
}

// TopQueriesCtx is TopQueries under an execution context: the Steiner
// search (branch-and-bound and Lawler partitioning) honors the context's
// deadline/cancellation, Lawler subproblems run concurrently, and the
// branches pruned during enumeration are tallied into
// ec.Stats().TreesPruned.
func (l *Learner) TopQueriesCtx(ec *engine.ExecCtx, terminals []string, k int) ([]*Query, error) {
	if ec == nil {
		ec = engine.Background()
	}
	// Memo: a query search is fully determined by the terminal set, k, the
	// graph's generations (weights + topology), the catalog's node set,
	// and the solver configuration. Steady-state refreshes with no
	// intervening feedback hit here and skip the solve entirely.
	cache := ec.PlanCache()
	var memoKey uint64
	if cache != nil {
		f := plancache.NewFingerprint().String("topqueries").Int(k)
		for _, t := range terminals {
			f = f.String(t)
		}
		memoKey = f.
			Uint64(l.Graph.Generation()).
			Uint64(l.Graph.StructGeneration()).
			Uint64(l.Graph.Catalog().Version()).
			Int(l.MaxExactNodes).
			Uint64(math.Float64bits(l.PruneFrac)).
			Sum()
		if v, ok := cache.Get(memoKey); ok {
			if qs, isQ := v.([]*Query); isQ {
				out := append([]*Query(nil), qs...)
				recordQueryDecisions(ec.Decisions(), out)
				return out, nil
			}
		}
	}
	l.steinMu.Lock()
	defer l.steinMu.Unlock()
	g, ix := l.steinerGraphLocked()
	terms := make([]int, 0, len(terminals))
	for _, t := range terminals {
		i, ok := ix.idx[t]
		if !ok {
			return nil, fmt.Errorf("intlearn: unknown terminal source %q", t)
		}
		terms = append(terms, i)
	}
	tier := l.solverTier(g.N(), len(terms), cache != nil)
	var solve steiner.CtxSolver
	switch tier {
	case TierExact:
		solve = steiner.CtxSolver(steiner.ExactCtx)
	case TierHybrid:
		// Answer now from the heuristic (no pruning pass — the point is
		// latency); exact refinement follows in the background.
		solve = steiner.CtxSolver(steiner.SPCSHCtx)
	default: // TierHeuristic
		solve = steiner.ApproxCtx(l.PruneFrac)
	}
	if d := ec.Decisions(); d != nil {
		d.Record(obs.Decision{
			Stage: "solver.tier", Candidate: fmt.Sprintf("n=%d t=%d k=%d", g.N(), len(terms), k),
			Action: obs.ActionSuggested, Reason: tier,
		})
	}
	if reg := ec.Metrics(); reg != nil {
		reg.Counter("solver.tier." + tier).Inc()
	}
	var m steiner.Metrics
	trees, err := steiner.TopKCtx(ec.Context(), g, terms, k, solve, &m)
	ec.Stats().TreesPruned.Add(m.Pruned())
	if err != nil {
		return nil, err
	}
	var out []*Query
	for _, tr := range trees {
		q := queryFromTree(tr, g, ix, terminals)
		q.Cost = l.Mira.Cost(q.EdgeIDs())
		out = append(out, q)
	}
	if cache != nil {
		// Queries are immutable after construction; cache the slice and
		// hand copies of the outer slice to callers.
		cache.Put(memoKey, append([]*Query(nil), out...))
	}
	if tier == TierHybrid && cache != nil {
		l.spawnRefineLocked(ec, cache, memoKey, g, ix, terms, terminals, k)
	}
	recordQueryDecisions(ec.Decisions(), out)
	return out, nil
}

// Tier names, as recorded in the decision log ("solver.tier" stage) and
// the solver.tier.* metric counters.
const (
	TierExact     = "exact"     // small problem: exact top-k inline
	TierHybrid    = "tiered"    // SPCSH now, exact refine in background
	TierHeuristic = "heuristic" // SPCSH with pruning only
)

// Default tier thresholds (see the corresponding Learner fields).
const (
	DefaultTierTerminals      = 8
	DefaultRefineMaxNodes     = 5000
	DefaultRefineMaxTerminals = 10
)

// solverTier picks the solving strategy: exact stays inline while both
// the node count (§4.2's "relatively small" regime) and the terminal
// count (the DP is exponential in terminals) are low; past that, answer
// from the heuristic immediately and — when the problem is still worth
// an exact pass and a plan cache exists to publish the re-rank — refine
// in the background.
func (l *Learner) solverTier(n, t int, canRefine bool) string {
	if n <= l.MaxExactNodes && t < l.TierTerminals {
		return TierExact
	}
	if canRefine && n <= l.RefineMaxNodes && t <= l.RefineMaxTerminals {
		return TierHybrid
	}
	return TierHeuristic
}

// queryFromTree converts a Steiner tree into a Query (cost unset): its
// source-graph edges plus the sorted node set, terminals always
// included (a single-edge tree still names both endpoints).
func queryFromTree(tr *steiner.Tree, g *steiner.Graph, ix *steinerIndex, terminals []string) *Query {
	q := &Query{}
	for _, id := range tr.Edges {
		q.Edges = append(q.Edges, ix.edges[id])
	}
	nodeSet := map[string]bool{}
	for _, v := range tr.Nodes(g) {
		nodeSet[ix.names[v]] = true
	}
	for _, t := range terminals {
		nodeSet[t] = true
	}
	for n := range nodeSet {
		q.Nodes = append(q.Nodes, n)
	}
	sort.Strings(q.Nodes)
	return q
}

// spawnRefineLocked starts the background exact refinement for a hybrid-
// tier answer. Callers hold steinMu: the Steiner graph is cloned under
// the lock (its own edge table, shared immutable topology) and the MIRA
// weights snapshotted, so the goroutine touches no live learner state.
// The refined ranking lands in the plan cache under the same memo key —
// the key pins the graph generations, so any intervening feedback moves
// future lookups to a new key and the stale publish is inert. One refine
// per key is in flight at a time; WaitRefines joins them all.
func (l *Learner) spawnRefineLocked(ec *engine.ExecCtx, cache *plancache.Cache, memoKey uint64, g *steiner.Graph, ix *steinerIndex, terms []int, terminals []string, k int) {
	l.refineMu.Lock()
	if l.refineInFlight == nil {
		l.refineInFlight = map[uint64]bool{}
	}
	if l.refineInFlight[memoKey] {
		l.refineMu.Unlock()
		return
	}
	l.refineInFlight[memoKey] = true
	l.refineMu.Unlock()

	gc := g.Clone()
	weights := l.Mira.Snapshot()
	termsCopy := append([]int(nil), terms...)
	namesCopy := append([]string(nil), terminals...)
	reg := ec.Metrics()
	stream := l.Stream
	l.refineWG.Add(1)
	go func() {
		defer l.refineWG.Done()
		defer func() {
			l.refineMu.Lock()
			delete(l.refineInFlight, memoKey)
			l.refineMu.Unlock()
		}()
		trees, err := steiner.TopKCtx(context.Background(), gc, termsCopy, k, steiner.CtxSolver(steiner.ExactCtx), nil)
		if err != nil || len(trees) == 0 {
			if reg != nil {
				reg.Counter("solver.refine.failed").Inc()
			}
			reason := "exact refinement returned no trees"
			if err != nil {
				reason = err.Error()
			}
			stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventRefineFailed, Detail: reason})
			return
		}
		out := make([]*Query, 0, len(trees))
		for _, tr := range trees {
			q := queryFromTree(tr, gc, ix, namesCopy)
			// Cost from the weight snapshot — exactly Mira.Cost as of the
			// generation the memo key pins.
			c := 0.0
			for _, id := range q.EdgeIDs() {
				if w, ok := weights[id]; ok {
					c += w
				} else {
					c += sourcegraph.DefaultCost
				}
			}
			q.Cost = c
			out = append(out, q)
		}
		cache.Put(memoKey, out)
		if reg != nil {
			reg.Counter("solver.refine.completed").Inc()
		}
	}()
}

// WaitRefines blocks until every background exact refinement spawned so
// far has finished — the determinism hook for tests, scenarios, and the
// scale experiment.
func (l *Learner) WaitRefines() { l.refineWG.Wait() }

// recordQueryDecisions logs the ranked query list; it runs identically on
// the solved and memoized paths so warm and cold refreshes leave the same
// decision trail.
func recordQueryDecisions(decisions *obs.DecisionLog, out []*Query) {
	if decisions == nil {
		return
	}
	for rank, q := range out {
		decisions.Record(obs.Decision{
			Stage: "suggest.queries", Candidate: strings.Join(q.Nodes, "+"),
			Action: obs.ActionSuggested, Cost: q.Cost, Rank: rank,
		})
	}
}

// CompileQuery turns a Steiner query into an executable plan, walking the
// tree from a materialized relation root.
func (l *Learner) CompileQuery(q *Query) (engine.Plan, error) {
	cat := l.Graph.Catalog()
	var root string
	for _, n := range q.Nodes {
		if s := cat.Get(n); s != nil && s.Kind == catalog.KindRelation {
			root = n
			break
		}
	}
	if root == "" {
		return nil, fmt.Errorf("intlearn: query %s has no materialized source to root at", q)
	}
	src := cat.Get(root)
	plan, err := src.Scan()
	if err != nil {
		return nil, err
	}
	// BFS over the tree edges from the root.
	remaining := append([]*sourcegraph.Edge(nil), q.Edges...)
	visited := map[string]bool{root: true}
	for len(remaining) > 0 {
		progressed := false
		var next []*sourcegraph.Edge
		for _, e := range remaining {
			var from string
			switch {
			case visited[e.From] && !visited[e.To]:
				from = e.From
			case visited[e.To] && !visited[e.From]:
				from = e.To
			case visited[e.From] && visited[e.To]:
				progressed = true
				continue // closes a cycle in a multi-edge; skip
			default:
				next = append(next, e)
				continue
			}
			p, _, err := l.ExtendPlan(plan, from, e)
			if err != nil {
				return nil, err
			}
			plan = p
			visited[e.Other(from)] = true
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("intlearn: query %s is disconnected from root %s", q, root)
		}
		remaining = next
	}
	return plan, nil
}

// ---------------------------------------------------------------- feedback

// AcceptCompletion records that the user accepted one completion over the
// displayed alternatives: the accepted query must outrank each
// alternative (§4.2's feedback constraints). Weights re-sync to the graph.
func (l *Learner) AcceptCompletion(chosen Completion, alternatives []Completion) int {
	updates := 0
	for _, alt := range alternatives {
		if alt.Edge.ID == chosen.Edge.ID {
			continue
		}
		c := mira.Constraint{
			Preferred: []string{chosen.Edge.ID},
			Other:     []string{alt.Edge.ID},
		}
		if l.Mira.Update(c) {
			updates++
		}
	}
	// Re-affirm the chosen edge is within the suggestion threshold.
	if l.Mira.Weight(chosen.Edge.ID) > sourcegraph.SuggestThreshold {
		l.Mira.Update(mira.Constraint{
			Preferred: []string{chosen.Edge.ID},
			Other:     nil,
			Margin:    -(sourcegraph.SuggestThreshold - mira.DefaultMargin),
		})
	}
	l.syncCosts()
	return updates
}

// RejectCompletion pushes a completion's edge cost above the suggestion
// threshold so it stops being proposed ("if the user rejects a group of
// auto-completions, these should be given a rank below the relevance
// threshold").
func (l *Learner) RejectCompletion(c Completion) {
	l.Mira.Update(mira.Constraint{
		Preferred: nil,
		Other:     []string{c.Edge.ID},
		Margin:    sourcegraph.SuggestThreshold + mira.DefaultMargin,
	})
	l.syncCosts()
}

// AcceptQuery prefers a full Steiner query over the alternatives.
func (l *Learner) AcceptQuery(q *Query, alternatives []*Query) int {
	updates := 0
	for _, alt := range alternatives {
		c := mira.Constraint{Preferred: q.EdgeIDs(), Other: alt.EdgeIDs()}
		if l.Mira.Update(c) {
			updates++
		}
	}
	l.syncCosts()
	return updates
}

// RejectQuery pushes a whole query's cost above the threshold.
func (l *Learner) RejectQuery(q *Query) {
	l.Mira.Update(mira.Constraint{
		Preferred: nil,
		Other:     q.EdgeIDs(),
		Margin:    sourcegraph.SuggestThreshold + mira.DefaultMargin,
	})
	l.syncCosts()
}

// ---------------------------------------------------------------- replacements (§3.2)

// Replacements proposes services that can stand in for the named one —
// the model learner's "propose replacement sources if a source is down,
// too slow, or does not provide a complete set of results" (§3.2). A
// candidate must cover the failed service's input bindings and produce
// outputs of the same semantic types (matching the learned source
// description); candidates come back cheapest-first by their current
// edge costs.
func (l *Learner) Replacements(svcName string) []*catalog.Source {
	cat := l.Graph.Catalog()
	failed := cat.Get(svcName)
	if failed == nil || failed.Kind != catalog.KindService {
		return nil
	}
	var out []*catalog.Source
	for _, s := range cat.All() {
		if s.Kind != catalog.KindService || s.Name == svcName {
			continue
		}
		if schemasEquivalent(failed.InputSchema(), s.InputSchema()) &&
			schemasEquivalent(failed.OutputSchema(), s.OutputSchema()) {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return l.minEdgeCost(out[i].Name) < l.minEdgeCost(out[j].Name)
	})
	return out
}

// schemasEquivalent compares schemas by semantic type (falling back to
// name) position-insensitively.
func schemasEquivalent(a, b table.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, ca := range a {
		found := false
		for j, cb := range b {
			if used[j] {
				continue
			}
			match := false
			if ca.SemType != "" && cb.SemType != "" {
				match = ca.SemType == cb.SemType
			} else {
				match = ca.Name == cb.Name && ca.Kind == cb.Kind
			}
			if match {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (l *Learner) minEdgeCost(node string) float64 {
	best := math.Inf(1)
	for _, e := range l.Graph.EdgesAt(node) {
		if c := l.edgeCost(e); c < best {
			best = c
		}
	}
	return best
}
