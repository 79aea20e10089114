// Package dooc is a Go reproduction of "An Out-of-Core Dataflow Middleware
// to Reduce the Cost of Large Scale Iterative Solvers" (Zhou, Saule,
// Aktulga, Yang, Ng, Maris, Vary, Çatalyürek — ICPP 2012).
//
// DOoC is a distributed task-based runtime with data-dependency tracking
// and out-of-core capabilities, built on a filter-stream dataflow
// middleware. This root package re-exports the library's primary API; the
// implementation lives in the internal packages:
//
//	internal/datacutter  filter-stream middleware (filters, streams, layouts)
//	internal/storage     distributed immutable block storage, LRU, I/O filters
//	internal/dag         task graphs derived from data in/outputs
//	internal/scheduler   global affinity + local data-aware scheduling
//	internal/core        the DOoC engine and the iterated-SpMV application
//	internal/sparse      CSR matrices, binary CRS files, generators, kernels
//	internal/lanczos     Lanczos eigensolver + tridiagonal/Jacobi solvers
//	internal/ci          toy Configuration-Interaction model (Section II)
//	internal/mfdn        in-core baseline + calibrated Hopper model
//	internal/perfmodel   testbed model regenerating Tables III/IV, Figs 6/7
//	internal/simnet      in-process cluster substrate with traffic ledger
//	internal/simclock    discrete-event clock + max-min fair-shared resources
//	internal/devices     Fig. 1 hierarchy, Carver SSD testbed, Hopper model
//
// See README.md for a tour, DESIGN.md for the architecture and experiment
// index, and EXPERIMENTS.md for paper-vs-reproduction numbers.
package dooc

import (
	"dooc/internal/core"
	"dooc/internal/lanczos"
	"dooc/internal/solvers"
	"dooc/internal/sparse"
)

// System is a running DOoC instance (an in-process cluster of nodes, each
// with a storage filter, I/O filters and computing filters).
type System = core.System

// Options configures NewSystem.
type Options = core.Options

// SpMVConfig describes an out-of-core iterated SpMV run.
type SpMVConfig = core.SpMVConfig

// SpMVResult carries an iterated SpMV outcome.
type SpMVResult = core.SpMVResult

// Operator is the out-of-core SpMV as a lanczos.Operator.
type Operator = core.Operator

// CSR is a sparse matrix in compressed sparse row format.
type CSR = sparse.CSR

// NewSystem builds and starts a DOoC system.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// StageMatrix writes a matrix's K×K blocks into per-node scratch
// directories for out-of-core execution, each a DOOCCRS2 block: the one
// format blocks are staged in. Directories staged earlier with DOOCCRS1
// files keep running as they are. A symmetric matrix is staged mirrored, as
// K(K+1)/2 blocks, each read once per iteration for both blocks of its pair.
func StageMatrix(scratchRoot string, m *CSR, cfg SpMVConfig) error {
	return core.StageMatrix(scratchRoot, m, cfg)
}

// LoadMatrixInMemory stages the same blocks directly into a running system.
func LoadMatrixInMemory(sys *System, m *CSR, cfg SpMVConfig) error {
	return core.LoadMatrixInMemory(sys, m, cfg)
}

// RunIteratedSpMV executes out-of-core power iterations.
func RunIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64) (*SpMVResult, error) {
	return core.RunIteratedSpMV(sys, cfg, x0)
}

// Lanczos runs the k-step Lanczos eigensolver over any operator
// (in-core matrices via lanczos.MatrixOperator, or the out-of-core
// Operator above).
func Lanczos(op lanczos.Operator, opts lanczos.Options) (*lanczos.Result, error) {
	return lanczos.Solve(op, opts)
}

// BasisStore keeps Lanczos basis vectors in DOoC storage (spillable to
// scratch) instead of process memory.
type BasisStore = core.BasisStore

// ResumeIteratedSpMV runs a checkpointed iterated SpMV, resuming from the
// newest durable iterate found in the system's scratch layout.
func ResumeIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64) (*SpMVResult, int, error) {
	return core.ResumeIteratedSpMV(sys, cfg, x0)
}

// CG solves A x = b over any operator with the Conjugate Gradient method
// (see internal/solvers for Jacobi, power iteration, and Chebyshev).
func CG(op solvers.Operator, b []float64, opts solvers.CGOptions) ([]float64, solvers.Stats, error) {
	return solvers.CG(op, b, opts)
}
