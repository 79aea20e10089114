package core

import (
	"math"
	"math/rand"
	"testing"

	"dooc/internal/compress"
	"dooc/internal/sparse"
)

// quantize rounds matrix values to 1/1024 steps — the limited-precision
// structure of physical matrix elements, which the value codec exploits.
func quantize(m *sparse.CSR) {
	for i, v := range m.Val {
		m.Val[i] = math.Round(v*1024) / 1024
	}
}

// TestCompressedStagingAndSpillsMatchRaw runs the same iterated SpMV twice —
// once over the blocks as uncompressed DOOCCRS1 files and no codec, once as
// StageMatrix stages them and with compressed scratch spills — and requires bit-identical results alongside a
// genuinely smaller staged set and spill traffic.
func TestCompressedStagingAndSpillsMatchRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dim := 96
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	quantize(m)
	// A quantized starting vector keeps the iterates' mantissas short, so
	// the spilled iterates stay compressible (random mantissas
	// would exercise only the bail-out).
	x0 := randVec(rng, dim)
	for i, v := range x0 {
		x0[i] = math.Round(v*256) / 256
	}
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 3, Nodes: 2, Tag: "ck"}

	// The run's sums flush every iterate they write, so transient vectors
	// really travel through the spill path (a plain run keeps them memory-
	// or peer-backed and never writes them).
	flushSum := func(ctx *ExecContext) error {
		if err := execSum(ctx); err != nil {
			return err
		}
		return ctx.Store.Flush(ctx.Task.Outputs[0].Array)
	}
	run := func(compressed bool) ([]float64, StagedMatrixInfo, *RunStats) {
		root := t.TempDir()
		stage := stageV1
		if compressed {
			stage = StageMatrix
		}
		if err := stage(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Nodes:          2,
			WorkersPerNode: 2,
			MemoryBudget:   1 << 14, // force spills and re-reads
			ScratchRoot:    root,
			PrefetchWindow: 2,
			Reorder:        true,
		}
		if compressed {
			opts.Codec = compress.Default()
		}
		sys, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, err := runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{sum: flushSum})
		if err != nil {
			t.Fatal(err)
		}
		return res.X, info, res.Stats
	}

	rawX, rawInfo, _ := run(false)
	encX, encInfo, encStats := run(true)

	// Compression must never perturb the numerics: same bits, not just
	// close floats.
	if len(rawX) != len(encX) {
		t.Fatalf("result lengths differ: %d vs %d", len(rawX), len(encX))
	}
	for i := range rawX {
		if math.Float64bits(rawX[i]) != math.Float64bits(encX[i]) {
			t.Fatalf("entry %d differs: %v vs %v", i, rawX[i], encX[i])
		}
	}
	if encInfo.Dim != rawInfo.Dim || encInfo.NNZ != rawInfo.NNZ {
		t.Fatalf("discovery disagrees across formats: %+v vs %+v", encInfo, rawInfo)
	}
	if encInfo.Bytes >= rawInfo.Bytes {
		t.Errorf("V2 staged set is %d bytes, V1 is %d: no shrink", encInfo.Bytes, rawInfo.Bytes)
	}
	if encStats.CompressRawBytes() == 0 {
		t.Fatal("codec run never spilled through the encoder")
	}
	if stored, raw := encStats.CompressStoredBytes(), encStats.CompressRawBytes(); stored >= raw {
		t.Errorf("spill stored %d bytes for %d raw: no shrink", stored, raw)
	}
}
