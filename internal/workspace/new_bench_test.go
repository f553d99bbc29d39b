package workspace

import (
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/services"
	"copycat/internal/webworld"
)

// BenchmarkNew measures the cost of building a workspace over a demo
// catalog — what a session host pays on every create and reload.
func BenchmarkNew(b *testing.B) {
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalog.New()
	for _, svc := range services.Builtin(w) {
		cat.AddService(svc, "builtin")
	}
	types := modellearn.NewLibrary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cat, types)
	}
}
