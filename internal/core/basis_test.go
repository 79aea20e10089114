package core

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/lanczos"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// Compile-time check: BasisStore implements lanczos.Basis.
var _ lanczos.Basis = (*BasisStore)(nil)

// TestBasisStoreRoundTrip covers the Basis contract directly.
func TestBasisStoreRoundTrip(t *testing.T) {
	s, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := &BasisStore{Store: s, Spill: true}
	vs := [][]float64{{1, 2, 3}, {4, 5, 6}, {-1, 0, 1}}
	for _, v := range vs {
		if err := b.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	for j, want := range vs {
		got, err := b.Vector(j)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d[%d] = %v, want %v", j, i, got[i], want[i])
			}
		}
	}
	if _, err := b.Vector(3); err == nil {
		t.Fatal("out-of-range vector accepted")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("Close did not reset")
	}
}

// TestBasisVectorReusesItsBuffer: reading a basis vector allocates nothing
// sized by the vector — reorthogonalisation reads every stored vector twice
// per step — and every read lands in the same buffer.
func TestBasisVectorReusesItsBuffer(t *testing.T) {
	s, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const dim, vectors = 3000, 4
	b := &BasisStore{Store: s, Spill: true}
	v := make([]float64, dim)
	for j := 0; j < vectors; j++ {
		for i := range v {
			v[i] = float64(j*dim + i)
		}
		if err := b.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	first, err := b.Vector(0)
	if err != nil {
		t.Fatal(err)
	}
	var (
		j    int
		got  []float64
		rerr error
	)
	read := func() { got, rerr = b.Vector(j % vectors); j++ }
	check := func() {
		t.Helper()
		last := float64((j-1)%vectors*dim + dim - 1)
		if rerr != nil || &got[0] != &first[0] || got[dim-1] != last {
			t.Fatalf("read %d: err %v, same buffer %v, last element %v want %v", j, rerr, &got[0] == &first[0], got[dim-1], last)
		}
	}
	// What is left is what a read lease on the vector's block costs — its
	// request and reply — and the name of the chunk's array.
	floor := testing.AllocsPerRun(50, func() {
		name, block := b.place(j % vectors)
		var l *storage.Lease
		if l, rerr = s.RequestBlock(name, block, storage.PermRead); rerr == nil {
			l.Release()
		}
		j++
	})
	if allocs := testing.AllocsPerRun(50, read); allocs > floor {
		t.Errorf("a basis read allocates %v times, a store read into a buffer %v", allocs, floor)
	}
	check()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reads = 50
	for i := 0; i < reads; i++ {
		read()
		check()
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead >= 8*dim/4 {
		t.Errorf("a read of a %d-byte vector allocates %d bytes", 8*dim, perRead)
	}
	if err := b.Append(make([]float64, dim+1)); err == nil {
		t.Error("a vector of another length was appended")
	}
}

// TestLanczosWithSpilledBasisMatchesMemory: the out-of-core basis must give
// bit-identical spectra to the in-memory basis (identical arithmetic,
// different residence).
func TestLanczosWithSpilledBasisMatchesMemory(t *testing.T) {
	const dim = 60
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 3, Seed: 8, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	op := lanczos.MatrixOperator{M: m}
	inMem, err := lanczos.Solve(op, lanczos.Options{Steps: 40, Seed: 4, WantVectors: true})
	if err != nil {
		t.Fatal(err)
	}

	s, err := storage.NewLocal(storage.Config{
		MemoryBudget: 2048, // far below 40 vectors x 480 B: must spill
		ScratchDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	basis := &BasisStore{Store: s, Spill: true}
	spilled, err := lanczos.Solve(op, lanczos.Options{Steps: 40, Seed: 4, WantVectors: true, Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled.Eigenvalues) != len(inMem.Eigenvalues) {
		t.Fatalf("step counts differ: %d vs %d", len(spilled.Eigenvalues), len(inMem.Eigenvalues))
	}
	for i := range inMem.Eigenvalues {
		if spilled.Eigenvalues[i] != inMem.Eigenvalues[i] {
			t.Fatalf("eig[%d]: spilled %v vs memory %v", i, spilled.Eigenvalues[i], inMem.Eigenvalues[i])
		}
	}
	for c := range inMem.Vectors {
		for i := range inMem.Vectors[c] {
			if math.Abs(spilled.Vectors[c][i]-inMem.Vectors[c][i]) > 1e-15 {
				t.Fatalf("ritz vector %d differs at %d", c, i)
			}
		}
	}
	// The run must actually have hit the disk.
	st := s.Stats()
	if st.BytesReadDisk == 0 || st.Evictions == 0 {
		t.Fatalf("no out-of-core traffic: %+v", st)
	}
	if err := basis.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBasisReuseRejected: Solve refuses a non-empty basis (stale state
// would corrupt the recurrence).
func TestBasisReuseRejected(t *testing.T) {
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 10, Cols: 10, D: 1, Seed: 9, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	b := &lanczos.MemoryBasis{}
	if err := b.Append(make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := lanczos.Solve(lanczos.MatrixOperator{M: m}, lanczos.Options{Steps: 3, Seed: 1, Basis: b}); err == nil {
		t.Fatal("reused basis accepted")
	}
}

// TestFullyOutOfCoreLanczos is the complete MFDn-replacement story: the
// SpMV runs through DOoC (staged matrix, leases, eviction, prefetch) AND
// the Lanczos basis itself is spilled to scratch — nothing of size
// O(k·dim) or O(nnz) stays resident.
func TestFullyOutOfCoreLanczos(t *testing.T) {
	const dim = 40
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 3, Seed: 10, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 2, Iters: 1, Nodes: 2}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 14,
		PrefetchWindow: 1,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	op := &Operator{Sys: sys, Cfg: cfg}
	basis := &BasisStore{Store: sys.Store(0), Spill: true}
	res, err := lanczos.Solve(op, lanczos.Options{Steps: dim, Seed: 6, Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lanczos.JacobiEigen(m.Dense(), dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Fatalf("eig[%d]: %v vs dense %v", i, res.Eigenvalues[i], want[i])
		}
	}
	if err := basis.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBasisChunksShareOneArray: a solve's vectors are blocks of one array per
// chunk, so a step's spill adds no file to the scratch directory — it fills
// a slot of the chunk's `.seg` file, and that file and the sidecar are made
// by the chunk's first append; a flush that would write the same sidecar
// again writes nothing. Vectors read back across the chunk boundary, Spill still leaves
// nothing of the basis resident, and Close removes every file.
func TestBasisChunksShareOneArray(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, ScratchDir: dir, Codec: compress.Default()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const dim, vectors = 16, 2*basisChunk + 3
	b := &BasisStore{Store: s, Spill: true}
	entries := func() (names []string) {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}
	var sidecarWritten time.Time
	v := make([]float64, dim)
	for j := 0; j < vectors; j++ {
		for i := range v {
			v[i] = float64(j*dim+i) + 0.5
		}
		if err := b.Append(v); err != nil {
			t.Fatal(err)
		}
		chunks := j/basisChunk + 1
		if got := entries(); len(got) != 2*chunks {
			t.Fatalf("after %d appends the scratch directory holds %v, want a slot file and a sidecar for each of %d chunks", j+1, got, chunks)
		}
		if st := s.Stats(); st.MemUsed != 0 {
			t.Fatalf("after %d spilled appends %d bytes are resident", j+1, st.MemUsed)
		}
		// The first chunk's sidecar is written once, by the first append.
		fi, err := os.Stat(filepath.Join(dir, "lanczos:c0.meta"))
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 {
			sidecarWritten = fi.ModTime()
		} else if !fi.ModTime().Equal(sidecarWritten) {
			t.Fatalf("append %d rewrote the first chunk's sidecar", j)
		}
	}
	for _, j := range []int{0, basisChunk - 1, basisChunk, vectors - 1} {
		got, err := b.Vector(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != dim || got[0] != float64(j*dim)+0.5 || got[dim-1] != float64(j*dim+dim-1)+0.5 {
			t.Fatalf("vector %d read back as %v", j, got)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if left := entries(); len(left) != 0 {
		t.Fatalf("Close left %v in the scratch directory", left)
	}
}
