package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/planner"
)

// labelHash folds a labeled pool into one SHA-256: every sample's SQL, the
// bits of its label, and the bits of every plan node's actuals, in pool
// order. Any change to a single label or per-node actual changes the hash.
func labelHash(samples []Sample) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, s := range samples {
		put(uint64(len(s.SQL)))
		h.Write([]byte(s.SQL))
		put(math.Float64bits(s.Ms))
		s.Plan.Walk(func(n *planner.Node) {
			put(uint64(n.ActualRows))
			put(math.Float64bits(n.ActualMs))
			put(math.Float64bits(n.ActualIn1))
			put(math.Float64bits(n.ActualIn2))
		})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLabelHashesGolden pins the labels the engine produces for fixed-seed
// pools (3 environments × 200 queries) on every benchmark. The engine may
// get faster; it may not change one bit of a label. Regenerate
// testdata/label_hashes.golden with QCFE_UPDATE_GOLDEN=1 only after an
// intentional change to the cost model or the workload generator.
func TestLabelHashesGolden(t *testing.T) {
	envs := dbenv.SampleSet(3, 11)
	var b strings.Builder
	for _, ds := range []*datagen.Dataset{tpch, imdb, sysb} {
		lab, err := Collect(ds, envs, 200, 7)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		fmt.Fprintf(&b, "%s %d %s\n", ds.Name, len(lab.Samples), labelHash(lab.Samples))
	}
	got := []byte(b.String())
	golden := filepath.Join("testdata", "label_hashes.golden")
	if os.Getenv("QCFE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (QCFE_UPDATE_GOLDEN=1 regenerates): %v\n%s", golden, err, got)
	}
	if string(got) != string(want) {
		t.Fatalf("labels drifted from golden (QCFE_UPDATE_GOLDEN=1 regenerates after an intentional cost-model change)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
