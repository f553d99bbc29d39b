package persist

import (
	"strings"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
)

func buildState(t testing.TB) (*catalog.Catalog, *modellearn.Library, *sourcegraph.Graph) {
	t.Helper()
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalog.New()
	rel := table.NewRelation("Shelters", table.Schema{
		{Name: "Name", Kind: table.KindString, SemType: modellearn.TypeOrgName},
		{Name: "City", Kind: table.KindString, SemType: modellearn.TypeCity},
		{Name: "Capacity", Kind: table.KindNumber},
		{Name: "Open", Kind: table.KindBool},
		{Name: "Note", Kind: table.KindNull},
	})
	for _, s := range w.Shelters[:5] {
		rel.MustAppend(table.Tuple{
			table.S(s.Name), table.S(s.City), table.N(float64(s.Capacity)),
			table.B(s.Status == "open"), table.Null(),
		})
	}
	cat.AddRelation(rel, "http://tv.example.com/shelters")
	if err := cat.AddKey("Shelters", "City", "Contacts", "City"); err != nil {
		t.Fatal(err)
	}
	types := modellearn.NewLibrary()
	modellearn.TrainBuiltins(types, w)
	g := sourcegraph.New(cat)
	g.Discover(sourcegraph.DefaultOptions())
	return cat, types, g
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cat, types, g := buildState(t)
	// Mark a learned cost.
	var edgeID string
	for _, e := range g.Edges() {
		edgeID = e.ID
		break
	}
	if edgeID == "" {
		t.Skip("no edges discovered (catalog too small)")
	}
	g.SetCost(edgeID, 0.42)

	data, err := Save(cat, types, g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Shelters") {
		t.Error("dump missing relation name")
	}

	cat2 := catalog.New()
	types2 := modellearn.NewLibrary()
	costs, err := Load(data, cat2, types2)
	if err != nil {
		t.Fatal(err)
	}
	src := cat2.Get("Shelters")
	if src == nil {
		t.Fatal("relation not restored")
	}
	if src.Rel.Len() != 5 {
		t.Errorf("rows = %d", src.Rel.Len())
	}
	if src.Schema[0].SemType != modellearn.TypeOrgName {
		t.Error("semtype lost")
	}
	if src.Origin != "http://tv.example.com/shelters" {
		t.Error("origin lost")
	}
	if src.Keys["City"] != "Contacts.City" {
		t.Error("foreign key lost")
	}
	// Value kinds survive.
	row := src.Rel.Rows[0]
	if row[2].Kind() != table.KindNumber || row[3].Kind() != table.KindBool || !row[4].IsNull() {
		t.Errorf("kinds lost: %v %v %v", row[2].Kind(), row[3].Kind(), row[4].Kind())
	}
	orig := cat.Get("Shelters").Rel.Rows[0]
	if !row.Equal(orig) {
		t.Errorf("row changed: %v vs %v", row.Texts(), orig.Texts())
	}
	// Types restored and functional.
	if len(types2.Types()) != len(types.Types()) {
		t.Errorf("types = %v", types2.Types())
	}
	w := webworld.Generate(webworld.DefaultConfig())
	scores := types2.Recognize([]string{w.Shelters[0].Zip, w.Shelters[1].Zip})
	if len(scores) == 0 || scores[0].Type != modellearn.TypeZip {
		t.Errorf("restored types misrecognize: %v", scores)
	}
	// Edge costs returned and re-appliable after re-discovery.
	if costs[edgeID] != 0.42 {
		t.Errorf("saved costs = %v", costs)
	}
	g2 := sourcegraph.New(cat2)
	g2.Discover(sourcegraph.DefaultOptions())
	applied := ApplyCosts(g2, costs)
	if applied == 0 {
		t.Error("no costs re-applied")
	}
	if g2.Edge(edgeID) == nil || g2.Edge(edgeID).Cost != 0.42 {
		t.Error("cost not re-attached")
	}
}

func TestSaveSkipsServices(t *testing.T) {
	w := webworld.Generate(webworld.DefaultConfig())
	cat, _, g := buildState(t)
	_ = w
	data, err := Save(cat, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "Zipcode Resolver") {
		t.Error("services should not be serialized")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("not json"), catalog.New(), nil); err == nil {
		t.Error("garbage should error")
	}
	if _, err := Load([]byte(`{"version": 99}`), catalog.New(), nil); err == nil {
		t.Error("future version should error")
	}
	// Ragged rows are rejected.
	bad := `{"version":1,"relations":[{"name":"R","columns":[{"name":"A","kind":1}],"rows":[[{"k":1,"v":"x"},{"k":1,"v":"extra"}]]}]}`
	if _, err := Load([]byte(bad), catalog.New(), nil); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestNilArguments(t *testing.T) {
	data, err := Save(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := Load(data, nil, nil)
	if err != nil || len(costs) != 0 {
		t.Errorf("nil round trip: %v %v", costs, err)
	}
	if ApplyCosts(sourcegraph.New(catalog.New()), nil) != 0 {
		t.Error("empty apply should be 0")
	}
}

func TestApplyCostsSkipsUnknownEdges(t *testing.T) {
	g := sourcegraph.New(catalog.New())
	n := ApplyCosts(g, map[string]float64{"ghost|join|edge|a=b": 0.5})
	if n != 0 {
		t.Error("unknown edge should be skipped")
	}
}

// TestMigrationV1 pins the pre-session snapshot format: a version-1
// document (no workspace, no plancache blocks) still loads, delivering
// its relations, types, and edge costs with nil extras — the migration
// is by omission.
func TestMigrationV1(t *testing.T) {
	v1 := `{
	 "version": 1,
	 "relations": [{
	  "name": "Legacy",
	  "origin": "import",
	  "columns": [{"name": "A", "kind": 1}],
	  "rows": [[{"k": 1, "v": "x"}], [{"k": 1, "v": "y"}]]
	 }],
	 "types": [],
	 "edge_costs": {"some|join|edge|a=b": 0.25}
	}`
	cat := catalog.New()
	r, err := LoadState([]byte(v1), cat, modellearn.NewLibrary())
	if err != nil {
		t.Fatalf("v1 snapshot failed to load: %v", err)
	}
	if r.Version != 1 {
		t.Fatalf("Version = %d, want 1", r.Version)
	}
	if r.Workspace != nil || r.PlanCache != nil {
		t.Fatal("v1 snapshot must have nil extras")
	}
	if r.EdgeCosts["some|join|edge|a=b"] != 0.25 {
		t.Fatalf("edge costs lost in migration: %v", r.EdgeCosts)
	}
	src := cat.Get("Legacy")
	if src == nil || src.Rel == nil || len(src.Rel.Rows) != 2 {
		t.Fatal("v1 relation not restored")
	}
}

func TestSaveStateIsV2(t *testing.T) {
	data, err := SaveState(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Fatalf("SaveState should stamp version 2:\n%s", data)
	}
}

// TestWorkspaceDumpRoundTrip checks the v2 surface: tabs, schemas,
// source nodes, concrete rows, active tab, and mode survive a
// dump/restore into a fresh workspace; suggested rows are dropped.
func TestWorkspaceDumpRoundTrip(t *testing.T) {
	cat := catalog.New()
	types := modellearn.NewLibrary()
	ws := workspace.New(cat, types)
	tab := ws.ActiveTab()
	tab.Schema = table.NewSchema("Name", "City")
	tab.SourceNode = "Shelters"
	tab.Rows = []workspace.Row{
		{Cells: table.Tuple{table.S("a"), table.S("x")}},
		{Cells: table.Tuple{table.S("b"), table.S("y")}, Suggested: true},
	}
	ws.SelectTab("Other").Schema = table.NewSchema("K")
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)

	d := DumpWorkspace(ws)
	if len(d.Tabs) != 2 || d.Active != "Sheet1" {
		t.Fatalf("dump shape: %+v", d)
	}

	ws2 := workspace.New(catalog.New(), modellearn.NewLibrary())
	RestoreWorkspace(ws2, d)
	if ws2.Mode() != workspace.ModeIntegration {
		t.Fatalf("mode = %v", ws2.Mode())
	}
	got := ws2.ActiveTab()
	if got.Name != "Sheet1" || got.SourceNode != "Shelters" {
		t.Fatalf("active tab: %+v", got)
	}
	if len(got.Rows) != 1 || got.Rows[0].Cells[0].Text() != "a" {
		t.Fatalf("rows: suggested rows must be dropped, concrete kept: %+v", got.Rows)
	}
	if len(ws2.Tabs()) != 2 {
		t.Fatalf("tab count = %d", len(ws2.Tabs()))
	}
	// Restoring a nil dump (v1 snapshot) is a no-op.
	RestoreWorkspace(ws2, nil)
}
