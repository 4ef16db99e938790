package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReadPerfFileIgnoresVariant reads a BENCH file written when the
// suite still recorded a forced frontier queue as "variant": the field
// is ignored, and the file stays comparable with current ones.
func TestReadPerfFileIgnoresVariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	old := `{
  "schema": "mcfs-bench/2",
  "created": "2026-08-08T06:00:00Z",
  "go": "go1.24.0",
  "goos": "linux",
  "goarch": "amd64",
  "num_cpu": 1,
  "variant": "heap",
  "quick": true,
  "seed": 1,
  "cities": ["aalborg"],
  "benchmarks": [{"name": "Dijkstra/aalborg", "n": 100, "ns_per_op": 1000, "bytes_per_op": 64, "allocs_per_op": 3}]
}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ReadPerfFile(path)
	if err != nil {
		t.Fatalf("ReadPerfFile: %v", err)
	}
	cur := &PerfFile{Schema: PerfSchema, Quick: true, Benchmarks: []PerfBenchmark{{Name: "Dijkstra/aalborg", NsPerOp: 1100, AllocsPerOp: 5}}}
	deltas, err := ComparePerf(f, cur, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].OldNs != 1000 || deltas[0].OldAllocs != 3 || deltas[0].Regression {
		t.Fatalf("deltas = %+v, want one non-regressed Dijkstra/aalborg row from 1000 ns, 3 allocs", deltas)
	}
}
