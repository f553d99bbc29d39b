package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBundle feeds arbitrary bytes through ReadBundle, the path
// `scpbench -analyze-incident` reads incident files from disk with.
// ReadBundle must never panic: it either rejects the bytes or returns an
// incident with an id and a trigger that the post-mortem renderer can
// render and that re-encodes to a bundle ReadBundle accepts again.
func FuzzReadBundle(f *testing.F) {
	seeds := []string{
		"",
		"{}",
		"null",
		"[]",
		`{"id": "inc-000001-sigquit"}`,
		`{"id": "inc-000001-sigquit", "trigger": "sigquit"}`,
		`{"id": "x", "trigger": "breaker.open", "events": [{"seq": 1, "at_ns": 5, "kind": "breaker.transition", "detail": "geocoder: closed -> open"}]}`,
		`{"id": "x", "trigger": "t", "spans": [{"at_ns": 1, "span": {"name": "suggest.refresh", "attrs": [{"k": "error", "v": "boom"}]}}]}`,
		`{"id": "x", "trigger": "t", "decisions": [{"at_ns": 1, "decision": {"stage": "s", "candidate": "c", "action": "pruned", "rank": -1}}]}`,
		`{"id": "x", "trigger": "t", "sessions": {"s1": {"spans": 2}}, "tenants": {"acme": {"events": 1}}, "counter_deltas": {"a": -3}}`,
		`{"id": "x", "trigger": "t", "pre": {"counters": {"a": 1}}, "post": {"histograms": {"h": {"count": 1, "buckets": [{"le_ns": -1, "count": 1}]}}}}`,
		`{"id": 1}`,
		`{"id": "x", "trigger": "t", "events": "not an array"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "bundle.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		inc, err := ReadBundle(path)
		if err != nil {
			if inc != nil {
				t.Fatalf("error %v came with an incident", err)
			}
			return
		}
		if inc.ID == "" || inc.Trigger == "" {
			t.Fatalf("accepted a bundle without id/trigger: %+v", inc)
		}
		_ = RenderTimeline(inc)
		again, err := json.Marshal(inc)
		if err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		if err := os.WriteFile(path, again, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBundle(path); err != nil {
			t.Fatalf("re-encoded bundle rejected: %v", err)
		}
	})
}
