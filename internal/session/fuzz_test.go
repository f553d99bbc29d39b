package session_test

import (
	"testing"

	"copycat/internal/simuser"
	"copycat/internal/webworld"
)

// FuzzRestore feeds arbitrary bytes through State.Restore, the path a
// reloaded or recovered session's snapshot takes. Restore must never
// panic: it rejects the bytes, or the restored state snapshots again
// and that snapshot restores into a fresh state.
func FuzzRestore(f *testing.F) {
	w := testWorld()
	factory := demoFactory(w)
	st, err := factory()
	if err != nil {
		f.Fatal(err)
	}
	if err := simuser.ImportShelters(st.Workspace, w, webworld.StyleTable); err != nil {
		f.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{"", "{}", "null", `{"version":1}`, `{"version":2,"relations":[{}]}`, `{"version":99}`} {
		f.Add([]byte(seed))
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(data); err != nil {
			return
		}
		again, err := st.Snapshot()
		if err != nil {
			t.Fatalf("restored state does not snapshot: %v", err)
		}
		fresh, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(again); err != nil {
			t.Fatalf("snapshot of a restored state is rejected: %v", err)
		}
	})
}
