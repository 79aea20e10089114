package jobs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dooc/internal/core"
	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/sparse"
)

// TestFinishedJobLeavesNoPayload: once a job's result is collected and its
// handle released, no copy of the payload stays on the heap — the durable
// service's result file is the only one left, and the store-less service
// keeps none at all. Jobs alternate between collection by value and by
// reference; each payload is 160 KB, so a manager that kept its results
// would grow the heap by ten times the budget.
func TestFinishedJobLeavesNoPayload(t *testing.T) {
	const dim, jobs = 20000, 24
	const perJobBudget = 16 << 10
	// Gaps average D, so about ten nonzeros a row: the payload is large, the
	// multiply cheap.
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	base := core.SpMVConfig{Dim: dim, K: 2, Nodes: 1}
	stage := base
	stage.Iters = 1
	if err := core.StageMatrix(root, m, stage); err != nil {
		t.Fatal(err)
	}
	m = nil
	sys, err := core.NewSystem(core.Options{Nodes: 1, WorkersPerNode: 1, MemoryBudget: 1 << 24, ScratchRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, durable := range []bool{true, false} {
		name := "store-less"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			oreg := obs.NewRegistry()
			cfg := Config{MaxRunning: 1, QueueDepth: 4, Obs: oreg}
			if durable {
				store, err := jobstore.Open(t.TempDir(), jobstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				cfg.Store = store
				cfg.Proxy = proxy.NewRegistry(proxy.Config{Store: store, Obs: oreg})
				defer cfg.Proxy.Close()
			}
			svc := NewSolverService(sys, base, cfg)
			defer svc.Manager.Drain()
			collect := func(n int) {
				t.Helper()
				st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1, Seed: int64(n % 4)})
				if err != nil {
					t.Fatal(err)
				}
				h, err := svc.Manager.ResultProxy(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				var data []byte
				if n%2 == 0 {
					data, err = svc.Manager.Result(st.ID)
				} else {
					data, err = svc.ResolveProxy(h.Ref())
				}
				if err != nil || len(data) != 8*dim {
					t.Fatalf("job %d: %d bytes, %v", st.ID, len(data), err)
				}
				if _, err := svc.ProxyRelease(h.Ref(), ""); err != nil {
					t.Fatal(err)
				}
				if n < 4 {
					// After the release the result file answers, or nothing does.
					again, err := svc.Manager.Result(st.ID)
					if durable && (err != nil || !bytes.Equal(data, again)) {
						t.Fatalf("job %d: collected bytes differ from the result file (%v)", st.ID, err)
					}
					if !durable && !errors.Is(err, proxy.ErrProxyGone) {
						t.Fatalf("job %d: Result after the release = %d bytes, %v; want ErrProxyGone", st.ID, len(again), err)
					}
				}
			}
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}

			// Warm the engine, arena and journal to their steady state first.
			for n := 0; n < 4; n++ {
				collect(n)
			}
			before := heap()
			for n := 0; n < jobs; n++ {
				collect(n)
			}
			after := heap()
			if after > before && after-before > jobs*perJobBudget {
				t.Fatalf("heap grew %d B over %d finished jobs (%d B a job), budget %d B a job",
					after-before, jobs, int(after-before)/jobs, perJobBudget)
			}
			t.Logf("heap grew %d B over %d finished jobs", int64(after)-int64(before), jobs)
			if got := oreg.Sum("dooc_proxy_resident_bytes"); got != 0 {
				t.Fatalf("dooc_proxy_resident_bytes = %d after every handle was released", got)
			}
		})
	}
}
