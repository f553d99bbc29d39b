package main

import (
	"errors"
	"testing"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/provenance"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
)

func completions() []intlearn.Completion {
	row := func(cells ...string) provenance.Annotated { return provenance.Annotated{Row: table.FromStrings(cells)} }
	return []intlearn.Completion{
		{Edge: &sourcegraph.Edge{ID: "Sheet1~zip"}, Target: "zip", Cost: 0.5,
			Result: &engine.Result{Rows: []provenance.Annotated{row("a", "33301"), row("b", "33302")}}},
		{Edge: &sourcegraph.Edge{ID: "Sheet1~Contacts"}, Target: "Contacts", Cost: 0.9,
			Result: &engine.Result{Rows: []provenance.Annotated{row("a", "Maria")}}},
	}
}

func wantIncorrect(t *testing.T, what string, err error) {
	t.Helper()
	var oe *opError
	if !errors.As(err, &oe) || !oe.incorrect {
		t.Errorf("%s: got %v, want an incorrect-output error", what, err)
	}
}

func TestDigestSeesEveryPartOfASuggestion(t *testing.T) {
	base := digest(completions())
	if digest(completions()) != base {
		t.Fatal("digest is not deterministic")
	}
	mutations := map[string]func([]intlearn.Completion){
		"cost":    func(c []intlearn.Completion) { c[1].Cost = 0.91 },
		"target":  func(c []intlearn.Completion) { c[0].Target = "city" },
		"edge":    func(c []intlearn.Completion) { c[0].Edge = &sourcegraph.Edge{ID: "Sheet1~geo"} },
		"row":     func(c []intlearn.Completion) { c[0].Result.Rows[1].Row = table.FromStrings([]string{"b", "33303"}) },
		"dropped": func(c []intlearn.Completion) { c[0].Result.Rows = c[0].Result.Rows[:1] },
		"order":   func(c []intlearn.Completion) { c[0], c[1] = c[1], c[0] },
		"no rows": func(c []intlearn.Completion) { c[1].Result = nil },
	}
	for name, mutate := range mutations {
		c := completions()
		mutate(c)
		if digest(c) == base {
			t.Errorf("digest misses a changed %s", name)
		}
	}
	if digest(completions()[:1]) == base {
		t.Error("digest misses a missing suggestion")
	}
}

func TestCheckDigestsRejectsADifferentList(t *testing.T) {
	warm := []string{digest(completions()), digest(completions()[:1])}
	if err := checkDigests(warm, append([]string(nil), warm...)); err != nil {
		t.Fatalf("identical lists rejected: %v", err)
	}
	wrong := completions()
	wrong[0].Cost = 0.4
	wantIncorrect(t, "changed list", checkDigests(warm, []string{digest(wrong), warm[1]}))
	wantIncorrect(t, "missing list", checkDigests(warm, warm[:1]))
}

func TestCheckReattachRejectsAChangedDigest(t *testing.T) {
	d := digest(completions())
	if err := checkReattach(d, d); err != nil {
		t.Fatalf("same list rejected: %v", err)
	}
	wantIncorrect(t, "reattach", checkReattach(d, digest(completions()[1:])))
}

func TestCheckTop1RejectsAWrongQuery(t *testing.T) {
	gt := &intlearn.Query{Nodes: []string{"f1", "f2", "f3"}}
	decoy := &intlearn.Query{Nodes: []string{"decoy", "f1", "f3"}}
	want := chainName([]string{"f3", "f1", "f2"})
	if err := checkTop1([]*intlearn.Query{gt, decoy}, want); err != nil {
		t.Fatalf("right top-1 rejected: %v", err)
	}
	wantIncorrect(t, "decoy on top", checkTop1([]*intlearn.Query{decoy, gt}, want))
	var oe *opError
	if err := checkTop1(nil, want); !errors.As(err, &oe) || oe.incorrect {
		t.Errorf("empty ranking: got %v, want a failed op", err)
	}
	if findQuery([]*intlearn.Query{decoy}, want) != nil {
		t.Error("findQuery matched the decoy")
	}
}

func TestCheckRowCountRejectsAWrongCount(t *testing.T) {
	if err := checkRowCount("rows", 30, 30); err != nil {
		t.Fatal(err)
	}
	wantIncorrect(t, "row count", checkRowCount("rows", 29, 30))
}
