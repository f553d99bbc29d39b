package main

import (
	"fmt"
	"math/rand"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/simuser"
	"copycat/internal/sourcegraph"
	"copycat/internal/steiner"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// expKeystrokes measures E1: SCP keystrokes vs the manual baselines for
// the full demo table, per site style.
func expKeystrokes() error {
	w := webworld.Generate(webworld.DefaultConfig())
	var rows [][]string
	for _, style := range []webworld.SiteStyle{
		webworld.StyleTable, webworld.StyleGrouped, webworld.StylePaged, webworld.StyleForm,
	} {
		res, err := simuser.RunShelterTask(w, style)
		if err != nil {
			rows = append(rows, []string{style.String(), "-", "-", "-", "-", "error: " + err.Error()})
			continue
		}
		rows = append(rows, []string{
			style.String(),
			fmt.Sprint(res.SCPKeystrokes),
			fmt.Sprint(res.ManualCopyPaste),
			fmt.Sprint(res.ManualTyping),
			f("%.0f%%", res.SavingsVsCopying*100),
			fmt.Sprintf("%d×%d", res.Rows, res.Cols),
		})
	}
	printTable([]string{"site style", "SCP keys", "manual c&p", "manual typing", "savings vs c&p", "table"}, rows)
	fmt.Println("\npaper claim (§5, Karma [36]): auto-completions saved ~75% of keystrokes")
	fmt.Println("vs manual copy-and-paste integration. Expect savings ≥ 75% everywhere.")
	return nil
}

// expConvergence measures E2: feedback items to fix one query, and
// held-out family accuracy after training on k queries.
func expConvergence() error {
	res, err := simuser.MeasureConvergence(20, 10)
	if err != nil {
		return err
	}
	fmt.Printf("single-query convergence: %d feedback item(s) (paper: \"as little as one\")\n\n", res.SingleQueryFeedback)
	var rows [][]string
	for _, trainN := range []int{0, 1, 2, 5, 10, 15} {
		fam := simuser.BuildFamily(20)
		for i := 0; i < trainN; i++ {
			if _, err := fam.TrainOn(fam.Sources[i]); err != nil {
				return err
			}
		}
		acc, err := fam.FamilyAccuracy(fam.Sources[trainN:])
		if err != nil {
			return err
		}
		rows = append(rows, []string{fmt.Sprint(trainN), f("%.0f%%", acc*100)})
	}
	printTable([]string{"queries trained on", "held-out family accuracy"}, rows)
	fmt.Println("\npaper claim (§5, Q [34]): one feedback item fixes a single query;")
	fmt.Println("feedback on 10 queries learns rankings for an entire query family.")
	return nil
}

// expTypes measures E4: recognition accuracy vs training rows, plus
// cross-source transfer.
func expTypes() error {
	w := webworld.Generate(webworld.Config{
		Seed: 9, Cities: 8, SheltersPerCity: 8, ContactsNoise: 0.5, Supplies: 10, Roads: 10,
	})
	columns := map[string][]string{}
	for _, s := range w.Shelters {
		columns[modellearn.TypeStreet] = append(columns[modellearn.TypeStreet], s.Street)
		columns[modellearn.TypeCity] = append(columns[modellearn.TypeCity], s.City)
		columns[modellearn.TypeZip] = append(columns[modellearn.TypeZip], s.Zip)
		columns[modellearn.TypePhone] = append(columns[modellearn.TypePhone], s.Phone)
		columns[modellearn.TypeOrgName] = append(columns[modellearn.TypeOrgName], s.Name)
	}
	var rows [][]string
	for _, trainN := range []int{2, 5, 10, 20, 40} {
		lib := modellearn.NewLibrary()
		for ty, vals := range columns {
			n := trainN
			if n > len(vals)/2 {
				n = len(vals) / 2
			}
			lib.Learn(ty, vals[:n])
		}
		correct, total := 0, 0
		for ty, vals := range columns {
			test := vals[len(vals)/2:]
			// Recognize in batches of 5 values, as a pasted column would be.
			for i := 0; i+5 <= len(test); i += 5 {
				total++
				scores := lib.Recognize(test[i : i+5])
				if len(scores) > 0 && scores[0].Type == ty {
					correct++
				}
			}
		}
		rows = append(rows, []string{fmt.Sprint(trainN), fmt.Sprintf("%d/%d", correct, total),
			f("%.0f%%", 100*float64(correct)/float64(total))})
	}
	printTable([]string{"training rows per type", "correct top-1 columns", "accuracy"}, rows)
	fmt.Println("\npaper shape (§3.2): pattern-distribution matching is robust on new")
	fmt.Println("sources that don't precisely match training — accuracy should rise")
	fmt.Println("quickly with a handful of training rows and then plateau high.")
	return nil
}

// expSteiner measures E5: runtime and solution quality, exact vs SPCSH,
// as the source graph grows.
func expSteiner() error {
	rng := rand.New(rand.NewSource(5))
	var rows [][]string
	for _, n := range []int{8, 16, 32, 64, 128, 200} {
		g := randomGraph(rng, n)
		terms := rng.Perm(n)[:4]
		t0 := time.Now()
		ex, okEx := steiner.Exact(g, terms, nil)
		exactTime := time.Since(t0)
		t0 = time.Now()
		ap, okAp := steiner.SPCSH(g, terms, nil)
		approxTime := time.Since(t0)
		if !okEx || !okAp {
			rows = append(rows, []string{fmt.Sprint(n), "-", "-", "-", "-", "disconnected"})
			continue
		}
		ratio := ap.Cost / ex.Cost
		rows = append(rows, []string{
			fmt.Sprint(n),
			exactTime.Round(time.Microsecond).String(),
			approxTime.Round(time.Microsecond).String(),
			f("%.1f", ex.Cost), f("%.1f", ap.Cost), f("%.3f", ratio),
		})
	}
	printTable([]string{"graph nodes", "exact time", "SPCSH time", "exact cost", "SPCSH cost", "ratio"}, rows)
	fmt.Println("\npaper shape (§4.2, [34]): exact top-k is practical on the small,")
	fmt.Println("query-driven graphs CopyCat sees; SPCSH stays near-optimal (ratio ≈ 1,")
	fmt.Println("bounded by 2) while scaling to larger graphs with flat runtime.")
	return nil
}

func randomGraph(rng *rand.Rand, n int) *steiner.Graph {
	g := steiner.NewGraph(n)
	// Ring for connectivity plus random chords.
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1+float64(rng.Intn(5)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+float64(rng.Intn(9)))
		}
	}
	return g
}

// expDemo runs E6: the full demo task per style, reporting final table
// shape and effort.
func expDemo() error {
	w := webworld.Generate(webworld.DefaultConfig())
	var rows [][]string
	for _, style := range []webworld.SiteStyle{
		webworld.StyleTable, webworld.StyleGrouped, webworld.StylePaged, webworld.StyleForm,
	} {
		res, err := simuser.RunShelterTask(w, style)
		if err != nil {
			rows = append(rows, []string{style.String(), "error: " + err.Error(), "", ""})
			continue
		}
		rows = append(rows, []string{style.String(),
			fmt.Sprintf("%d×%d", res.Rows, res.Cols),
			fmt.Sprint(res.SCPKeystrokes),
			f("%.0f%%", res.SavingsVsCopying*100)})
	}
	printTable([]string{"site style", "final table", "SCP keystrokes", "savings"}, rows)
	return nil
}

// expAblationTypes measures A1: association discovery with vs without
// the semantic-type constraint.
func expAblationTypes() error {
	w := webworld.Generate(webworld.DefaultConfig())
	env := simuser.NewEnv(w, webworld.StyleTable)
	// Import shelters and contacts so both relations are in the catalog.
	if err := importShelters(env.WS, env.Brows, w); err != nil {
		return err
	}
	env.WS.SetColumnType(0, modellearn.TypeOrgName)
	cat := env.WS.Cat

	count := func(opts sourcegraph.Options) (edges, pairs int) {
		g := sourcegraph.New(cat)
		g.Discover(opts)
		for _, e := range g.Edges() {
			edges++
			pairs += len(e.FromCols)
		}
		return edges, pairs
	}
	withEdges, withPairs := count(sourcegraph.DefaultOptions())
	woEdges, woPairs := count(sourcegraph.Options{UseSemTypes: false})
	printTable([]string{"variant", "association edges", "matched attribute pairs"}, [][]string{
		{"with semantic types", fmt.Sprint(withEdges), fmt.Sprint(withPairs)},
		{"without (kind-compatibility only)", fmt.Sprint(woEdges), fmt.Sprint(woPairs)},
	})
	fmt.Println("\npaper shape (§4.1): \"the use of semantic types helps constrain the")
	fmt.Println("possible edges\" — expect far fewer candidate pairs with types on.")
	return nil
}

// expAblationSteiner measures A2: exact vs approximate Steiner as the
// integration learner's query finder — quality of the top answer.
func expAblationSteiner() error {
	rng := rand.New(rand.NewSource(13))
	var rows [][]string
	for _, n := range []int{10, 20, 40, 80} {
		optimalHits, trials := 0, 20
		var ratioSum float64
		for t := 0; t < trials; t++ {
			g := randomGraph(rng, n)
			terms := rng.Perm(n)[:3]
			ex, ok1 := steiner.Exact(g, terms, nil)
			ap, ok2 := steiner.Approx(0.2)(g, terms, nil)
			if !ok1 || !ok2 {
				continue
			}
			if ap.Cost <= ex.Cost+1e-9 {
				optimalHits++
			}
			ratioSum += ap.Cost / ex.Cost
		}
		rows = append(rows, []string{fmt.Sprint(n),
			fmt.Sprintf("%d/%d", optimalHits, trials),
			f("%.3f", ratioSum/float64(trials))})
	}
	printTable([]string{"graph nodes", "approx found optimum", "mean cost ratio"}, rows)
	fmt.Println("\nexpected: the approximation finds the optimal query most of the time;")
	fmt.Println("when it misses, the cost ratio stays close to 1 (≤ 2 guaranteed).")
	return nil
}

// expMatcher exercises the §4.1 future-work schema matcher: renamed,
// untyped columns that only approximate matching can associate.
func expMatcher() error {
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalogWithRenamedSources(w)
	plain := sourcegraph.New(cat)
	plain.Discover(sourcegraph.DefaultOptions())
	matched := sourcegraph.New(cat)
	matched.Discover(sourcegraph.MatcherOptions())
	var rows [][]string
	rows = append(rows, []string{"default rules (name/type equality)", fmt.Sprint(plain.Len())})
	rows = append(rows, []string{"with approximate matcher", fmt.Sprint(matched.Len())})
	printTable([]string{"discovery variant", "association edges"}, rows)
	fmt.Println("\nmatcher-derived edges (confidence → initial cost):")
	for _, e := range matched.Edges() {
		fmt.Printf("  %s\n", e.Label())
	}
	fmt.Println("\npaper (§4.1): approximate attribute matchings \"would be initialized")
	fmt.Println("with an edge weight that is derived from the schema matcher's")
	fmt.Println("confidence score\" — edges above carry those derived costs.")
	return nil
}

func catalogWithRenamedSources(w *webworld.World) *catalog.Catalog {
	cat := catalog.New()
	a := table.NewRelation("TVShelters", table.NewSchema("Name", "Street", "City"))
	for _, s := range w.Shelters {
		a.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	b := table.NewRelation("CountyDepots", table.NewSchema("depot_name", "town", "item"))
	for _, s := range w.Supplies {
		b.MustAppend(table.FromStrings([]string{s.Depot, s.City, s.Item}))
	}
	cat.AddRelation(a, "tv")
	cat.AddRelation(b, "county")
	return cat
}
