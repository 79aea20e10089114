// Benchmarks for the paper's proposed-future-work extensions implemented in
// this reproduction: additional solver kernels (Section VII), the local-SSD
// configuration (Section VI-A), and the energy study (Section VI-B).
package dooc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"dooc/internal/core"
	"dooc/internal/energy"
	"dooc/internal/lanczos"
	"dooc/internal/perfmodel"
	"dooc/internal/solvers"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// benchSPD builds a diagonally dominant symmetric matrix for solver benches.
func benchSPD(b *testing.B, n int, seed int64) *sparse.CSR {
	b.Helper()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: n, Cols: n, D: 4, Seed: seed, Symmetric: true})
	if err != nil {
		b.Fatal(err)
	}
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		row := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.ColIdx[k]) != i {
				row += math.Abs(m.Val[k])
			}
			ts = append(ts, sparse.Triplet{Row: i, Col: int(m.ColIdx[k]), Val: m.Val[k]})
		}
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: row + 1})
	}
	spd, err := sparse.FromTriplets(n, n, ts)
	if err != nil {
		b.Fatal(err)
	}
	return spd
}

// BenchmarkSolverKernels compares the iterative kernels on one SPD system
// (iterations-to-convergence is the reported metric).
func BenchmarkSolverKernels(b *testing.B) {
	const n = 2000
	m := benchSPD(b, n, 1)
	rng := rand.New(rand.NewSource(2))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = m.At(i, i)
	}
	pool := sparse.NewPool(2)
	defer pool.Close()
	op := lanczos.MatrixOperator{M: m, Pool: pool}

	b.Run("CG", func(b *testing.B) {
		var st solvers.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = solvers.CG(op, rhs, solvers.CGOptions{Tol: 1e-8})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Iterations), "iters")
	})
	b.Run("Jacobi", func(b *testing.B) {
		var st solvers.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = solvers.Jacobi(op, rhs, solvers.JacobiOptions{Diag: diag, Tol: 1e-8})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Iterations), "iters")
	})
	b.Run("Chebyshev", func(b *testing.B) {
		// Spectral bounds via a short Lanczos run.
		res, err := lanczos.Solve(op, lanczos.Options{Steps: 30, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		lmin := res.Eigenvalues[0] * 0.9
		lmax := res.Eigenvalues[len(res.Eigenvalues)-1] * 1.1
		var st solvers.Stats
		for i := 0; i < b.N; i++ {
			_, st, err = solvers.Chebyshev(op, rhs, solvers.ChebyshevOptions{LMin: lmin, LMax: lmax, Tol: 1e-8, MaxIter: 20000})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Iterations), "iters")
	})
}

// BenchmarkExtensionLocalSSD quantifies the Section VI-A what-if.
func BenchmarkExtensionLocalSSD(b *testing.B) {
	var ioNode, local perfmodel.Row
	for i := 0; i < b.N; i++ {
		ioNode = perfmodel.Star()
		local = perfmodel.Run(energy.LocalSSDExperiment())
	}
	b.ReportMetric(ioNode.TimeSeconds/local.TimeSeconds, "speedup")
	b.ReportMetric(local.CPUHoursPerIter, "cpu-h/iter")
	b.ReportMetric(local.GFlops, "gflops")
}

// BenchmarkExtensionEnergy reports the Section VI-B energy comparison.
func BenchmarkExtensionEnergy(b *testing.B) {
	var reports []energy.Report
	for i := 0; i < b.N; i++ {
		reports = energy.Study()
	}
	for _, r := range reports {
		var key string
		switch {
		case r.Name[:7] == "testbed" && r.Name[8] == '3':
			key = "kJ-testbed36"
		case r.Name[:7] == "testbed":
			key = "kJ-star9"
		case r.Name[:5] == "local":
			key = "kJ-localSSD"
		default:
			key = "kJ-hopper"
		}
		b.ReportMetric(r.KJPerIter, key)
	}
}

// BenchmarkAblationDispersion sweeps the shared-GPFS variability parameter,
// quantifying how much of the simple policy's non-overlapped time is pure
// straggler effect (supports the EXPERIMENTS.md discussion).
func BenchmarkAblationDispersion(b *testing.B) {
	for _, disp := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("dispersion=%.2f", disp), func(b *testing.B) {
			var r perfmodel.Row
			for i := 0; i < b.N; i++ {
				cfg := perfmodel.Experiment(36, perfmodel.PolicySimple)
				cfg.Testbed.BWDispersion = disp
				r = perfmodel.Run(cfg)
			}
			b.ReportMetric(r.TimeSeconds, "time-s")
			b.ReportMetric(100*r.NonOverlapped, "nonoverlap%")
		})
	}
}

// BenchmarkAblationIOWorkers sweeps the number of asynchronous I/O filters
// per node (the paper: "There should be as many I/O filters as is necessary
// to efficiently use the parallelism contained in the I/O subsystem").
func BenchmarkAblationIOWorkers(b *testing.B) {
	const dim, k = 3000, 5
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	root := b.TempDir()
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 2, Nodes: 1}
	if err := core.StageMatrix(root, m, cfg); err != nil {
		b.Fatal(err)
	}
	x0 := make([]float64, dim)
	x0[0] = 1
	for _, io := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("iofilters=%d", io), func(b *testing.B) {
			sys, err := core.NewSystem(core.Options{
				Nodes: 1, WorkersPerNode: 2, ScratchRoot: root,
				MemoryBudget: 1 << 22, PrefetchWindow: 4, Reorder: true, IOWorkers: io,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Tag = fmt.Sprintf("io%d-%d", io, i)
				if _, err := core.RunIteratedSpMV(sys, c, x0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEvictionPolicy quantifies DESIGN.md decision 2: on the
// iterated SpMV access pattern, MRU eviction is the theoretical winner for
// FIFO-ordered cyclic scans, and the back-and-forth reordering is what
// makes plain LRU competitive — the scheduling insight of the paper's
// Fig. 5 expressed as cache policy.
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	const dim, k = 2400, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name     string
		reorder  bool
		eviction storage.EvictionPolicy
	}{
		{"fifo-order+LRU", false, storage.EvictLRU},
		{"fifo-order+MRU", false, storage.EvictMRU},
		{"backandforth+LRU", true, storage.EvictLRU},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var bytesRead int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				root, err := os.MkdirTemp("", "evict")
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 4, Nodes: 1}
				if err := core.StageMatrix(root, m, cfg); err != nil {
					b.Fatal(err)
				}
				info, err := core.DiscoverStagedMatrix(root)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := core.NewSystem(core.Options{
					Nodes: 1, ScratchRoot: root,
					MemoryBudget: info.Bytes/int64(k*k)*5/2 + 1<<15, // ~2.5 blocks
					Reorder:      tc.reorder,
					Eviction:     tc.eviction,
				})
				if err != nil {
					b.Fatal(err)
				}
				x0 := make([]float64, dim)
				x0[0] = 1
				b.StartTimer()
				res, err := core.RunIteratedSpMV(sys, cfg, x0)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bytesRead = res.Stats.BytesReadDisk()
				sys.Close()
				os.RemoveAll(root)
			}
			b.ReportMetric(float64(bytesRead)/1e6, "disk-MB/run")
		})
	}
}
