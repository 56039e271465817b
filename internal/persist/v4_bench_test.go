package persist

import (
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// BenchmarkStartupMmap measures the v4 restart path against
// BenchmarkStartupRebuild (persist_test.go): map the snapshot and
// decode only the section directory, symbol table, and schema —
// postings stay encoded in the mapping until queries touch them.
func BenchmarkStartupMmap(b *testing.B) {
	root := benchRoot()
	path := filepath.Join(b.TempDir(), "bench.v4")
	if err := SaveFile(path, engine.New(root), Meta{CorpusName: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadFile(path, root, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartupMmapFirstQuery adds the first query on top of the
// mapped load — the latency a restarted server's first client sees,
// including the lazy block decodes that query faults in.
func BenchmarkStartupMmapFirstQuery(b *testing.B) {
	root := benchRoot()
	path := filepath.Join(b.TempDir(), "bench.v4")
	if err := SaveFile(path, engine.New(root), Meta{CorpusName: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _, err := LoadFile(path, root, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Search("tomtom gps"); err != nil {
			b.Fatal(err)
		}
	}
}
