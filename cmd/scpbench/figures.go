package main

import (
	"context"
	"fmt"
	"strings"

	"copycat"
	"copycat/internal/engine"
	"copycat/internal/simuser"
	"copycat/internal/sourcegraph"
	"copycat/internal/webworld"
)

// expF1 re-runs the Figure 1 scenario: two pasted shelters are
// generalized into row auto-completions and the columns are typed.
func expF1() error {
	sys := copycat.NewDemoSystem(copycat.DefaultWorldConfig())
	w := sys.World
	s0, s1 := w.Shelters[0], w.Shelters[1]
	sel, err := sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable)).CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return err
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		return err
	}
	info := sys.Workspace.RowSuggestions()
	tab := sys.Workspace.ActiveTab()
	var rows [][]string
	rows = append(rows, []string{"pasted example rows", fmt.Sprint(len(tab.ConcreteRows()))})
	rows = append(rows, []string{"suggested rows (auto-completion)", fmt.Sprint(info.Count)})
	rows = append(rows, []string{"expected (remaining shelters)", fmt.Sprint(len(w.Shelters) - 2)})
	rows = append(rows, []string{"winning hypothesis", info.Description})
	rows = append(rows, []string{"alternative hypotheses", fmt.Sprint(info.Alternatives)})
	for i, c := range tab.Schema {
		if ts, ok := sys.Workspace.RecognizedTypeFor(i); ok {
			rows = append(rows, []string{
				fmt.Sprintf("column %q semantic type", c.Name),
				fmt.Sprintf("%s (score %.2f)", ts.Type, ts.Score),
			})
		}
	}
	printTable([]string{"measure", "value"}, rows)
	fmt.Println("\npaper shape: the paste generalizes to the page's full shelter list;")
	fmt.Println("street/city columns are auto-typed PR-Street / PR-City (user labels Name).")
	printStats(sys.Stats())
	return nil
}

// expF2 re-runs the Figure 2 scenario: the Zip column completion via the
// Zipcode Resolver, with accuracy against ground truth and the tuple
// explanation.
func expF2() error {
	sys := copycat.NewDemoSystem(copycat.DefaultWorldConfig())
	w := sys.World
	if err := importShelters(sys.Workspace, sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable)), sys.World); err != nil {
		return err
	}
	sys.Workspace.SetMode(copycat.ModeIntegration)
	comps := sys.Workspace.RefreshColumnSuggestions()
	var rows [][]string
	zipAt := -1
	for i, c := range comps {
		mark := ""
		if c.Target == "Zipcode Resolver" {
			zipAt = i
			mark = "  ← Figure 2's suggestion"
		}
		rows = append(rows, []string{fmt.Sprint(i), c.Target, c.Edge.Kind.String(),
			f("%.2f", c.Cost), fmt.Sprint(len(c.Result.Rows)) + mark})
	}
	printTable([]string{"rank", "completion target", "kind", "cost", "rows"}, rows)
	if zipAt < 0 {
		return fmt.Errorf("zip completion missing")
	}
	// Accuracy of the suggested zips.
	truth := map[string]string{}
	for _, s := range w.Shelters {
		truth[s.Name+"|"+s.Street] = s.Zip
	}
	zip := comps[zipAt]
	ni := zip.Result.Schema.Index("Shelter")
	if ni < 0 {
		ni = 0
	}
	st := zip.Result.Schema.Index("Address")
	zi := zip.Result.Schema.Index("Zip")
	correct := 0
	for _, a := range zip.Result.Rows {
		if truth[a.Row[ni].Str()+"|"+a.Row[st].Str()] == a.Row[zi].Str() {
			correct++
		}
	}
	fmt.Printf("\nzip accuracy vs ground truth: %d/%d (%.0f%%)\n",
		correct, len(zip.Result.Rows), 100*float64(correct)/float64(len(zip.Result.Rows)))
	expl, err := sys.Workspace.ExplainCompletion(zipAt, 1)
	if err != nil {
		return err
	}
	fmt.Println("\ntuple explanation pane (first row):")
	fmt.Println(expl)
	printStats(sys.Stats())
	return nil
}

// expF3 smoke-tests the Figure 3 architecture: every module runs in its
// place in the pipeline and reports a health line.
func expF3() error {
	w := webworld.Generate(webworld.DefaultConfig())
	res, err := simuser.RunShelterTask(w, webworld.StyleTable)
	if err != nil {
		return err
	}
	sys := copycat.NewDemoSystem(copycat.DefaultWorldConfig())
	var rows [][]string
	rows = append(rows, []string{"application wrappers", "browser/spreadsheet copy events with source context"})
	rows = append(rows, []string{"structure learner", "generalized 2 pasted rows to the full site"})
	rows = append(rows, []string{"model learner", fmt.Sprintf("%d builtin semantic types trained", len(sys.Types.Types()))})
	rows = append(rows, []string{"catalog", fmt.Sprintf("%d builtin services registered", sys.Catalog.Len())})
	rows = append(rows, []string{"integration learner", "column completions proposed and accepted"})
	rows = append(rows, []string{"query engine", "dependent joins executed with provenance"})
	rows = append(rows, []string{"workspace", fmt.Sprintf("final table %d×%d, %d SCP keystrokes", res.Rows, res.Cols, res.SCPKeystrokes)})
	printTable([]string{"module (Figure 3)", "status"}, rows)
	return nil
}

// expF4 materializes the Figure 4 source graph for the running example
// and lists the top queries connecting the bolded nodes (Shelters and
// Contacts).
func expF4() error {
	w := webworld.Generate(webworld.DefaultConfig())
	env := simuser.NewEnv(w, webworld.StyleTable)
	ws := env.WS
	// Import both sources so the graph has the Figure 4 shape.
	if err := importShelters(ws, env.Brows, w); err != nil {
		return err
	}
	ws.SetColumnType(0, "PR-OrgName")
	sheetDoc := w.ContactsSpreadsheet()
	grid := sheetDoc.Grid()
	ws.SelectTab("Contacts")
	sel2 := copycat.Selection{Cells: grid[1:3], Doc: sheetDoc}
	if err := ws.Paste(sel2); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ct := ws.ActiveTab()
	for i, c := range ct.Schema {
		switch c.Name {
		case "Organization":
			ws.SetColumnType(i, "PR-OrgName")
		case "Contact":
			ws.SetColumnType(i, "PR-PersonName")
		}
	}
	ws.Int.Graph.Discover(sourcegraph.DefaultOptions())

	var rows [][]string
	for _, e := range ws.Int.Graph.Edges() {
		rows = append(rows, []string{e.From, e.Kind.String(), e.To,
			strings.Join(e.FromCols, ","), f("%.2f", e.Cost)})
	}
	printTable([]string{"from", "kind", "to", "on", "cost"}, rows)

	ec := engine.NewExecCtx(context.Background(),
		engine.WithStats(ws.ExecStats), engine.WithServiceCache(ws.SvcCache))
	qs, err := ws.Int.TopQueriesCtx(ec, []string{"Sheet1", "Contacts"}, 3)
	if err != nil {
		return err
	}
	fmt.Println("\ntop-k queries connecting the bolded nodes (Sheet1=Shelters, Contacts):")
	for i, q := range qs {
		fmt.Printf("  %d. %s\n", i+1, q)
		for _, e := range q.Edges {
			fmt.Printf("     %s\n", e.Label())
		}
	}
	printStats(ws.ExecStats.Snapshot())
	return nil
}

// expWrapper measures E3: examples needed until correct generalization,
// per page-complexity class.
func expWrapper() error {
	w := webworld.Generate(webworld.DefaultConfig())
	var rows [][]string
	for _, style := range webworld.AllStyles() {
		n, ok := simuser.ExamplesNeeded(w, style, 15)
		status := "converged"
		if !ok {
			status = "not converged (≤15 examples)"
		}
		rows = append(rows, []string{style.String(), fmt.Sprint(n), status})
	}
	printTable([]string{"page class", "examples needed", "status"}, rows)
	fmt.Println("\npaper shape (§3.1): \"the more complex the pages are, the more")
	fmt.Println("examples may be necessary\" — the ladder should be non-decreasing")
	fmt.Println("from the clean table page toward grouped/paged/form-gated sites.")
	return nil
}
