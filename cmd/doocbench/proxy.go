package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/remote"
	"dooc/internal/sparse"
)

// proxyBenchOut is the -proxy-bench-out flag: where `-exp proxy` writes its
// machine-readable result. The checked-in BENCH_proxy.json is a captured
// run, pinning the by-value vs by-reference wire-byte ratio across PRs.
var proxyBenchOut string

// proxyReport is the JSON schema of BENCH_proxy.json.
type proxyReport struct {
	Experiment   string    `json:"experiment"`
	Timestamp    time.Time `json:"timestamp"`
	GoVersion    string    `json:"go_version"`
	Dim          int       `json:"dim"`
	K            int       `json:"k"`
	Nodes        int       `json:"nodes"`
	ProducerIter int       `json:"producer_iters"`
	ConsumerIter int       `json:"consumer_iters"`
	Consumers    int       `json:"consumers"`
	PayloadBytes int64     `json:"payload_bytes"`

	// Fan-out: every consumer obtains the producer's result — the full
	// vector by value, a ~100-byte handle by reference.
	ByValueWallMs float64 `json:"by_value_wall_ms"`
	ByValueBytes  int64   `json:"by_value_client_bytes"`
	ByRefWallMs   float64 `json:"by_reference_wall_ms"`
	ByRefBytes    int64   `json:"by_reference_client_bytes"`

	// Chained dataflow: job B consumes job A's handle server-side.
	ChainIdentical bool    `json:"chain_bit_identical"`
	ChainHopBytes  int64   `json:"chain_hop_client_bytes"`
	ChainWallMs    float64 `json:"chain_wall_ms"`

	ServerResolves    int64 `json:"server_resolves_total"`
	ResolvedBytes     int64 `json:"server_resolved_bytes_total"`
	HandlesRegistered int64 `json:"handles_registered_total"`
}

// proxyRun measures the proxy-object result plane against the by-value
// baseline on the scenario ROADMAP item 1 calls out: one producer job whose
// result fans out to 8 consumers. By value every consumer drags the full
// result vector over its client link; by reference each receives a compact
// handle naming the iterate and the payload stays on the server. A chained
// consumer job (input = the producer's handle) then continues the
// computation bit-identically to one unchained run, with zero result bytes
// crossing the client link between the jobs — verified with the clients'
// own received-payload-byte counters.
func proxyRun() error {
	const (
		dim          = 10000
		k            = 4
		nodes        = 2
		producerIter = 6
		consumerIter = 2
		consumers    = 8
	)
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 7})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: 2, Obs: benchObs})
	if err != nil {
		return err
	}
	defer sys.Close()
	base := core.SpMVConfig{Dim: dim, K: k, Nodes: nodes}
	load := base
	load.Iters = 1
	if err := core.LoadMatrixInMemory(sys, m, load); err != nil {
		return err
	}
	reg := proxy.NewRegistry(proxy.Config{Scope: "bench", Obs: benchObs, OnReclaim: func(_ proxy.Handle, arrays []string) {
		for _, a := range arrays {
			core.DropArray(sys, a)
		}
	}})
	defer reg.Close()
	svc := jobs.NewSolverService(sys, base, jobs.Config{MaxRunning: 4, QueueDepth: 64, Proxy: reg, Obs: benchObs})
	defer svc.Manager.Drain()
	srv, err := remote.ListenOptions(sys.Store(0), "127.0.0.1:0", remote.ServerOptions{Jobs: svc})
	if err != nil {
		return err
	}
	defer srv.Close()

	// Producer: one job whose iterate every consumer wants.
	prod, err := svc.Submit(jobs.SolveRequest{Tenant: "producer", Iters: producerIter, Seed: 7})
	if err != nil {
		return err
	}
	prodBytes, err := svc.Manager.Result(prod.ID)
	if err != nil {
		return err
	}
	hProd, err := svc.ResultProxy(prod.ID)
	if err != nil {
		return err
	}

	// fanOut runs `consumers` parallel clients, each executing fetch, and
	// returns the wall time and the result-payload bytes that crossed the
	// client links (the clients' own received-byte counters).
	fanOut := func(fetch func(cl *remote.Client) error) (time.Duration, int64, error) {
		clObs := obs.NewRegistry()
		cls := make([]*remote.Client, consumers)
		for i := range cls {
			cl, err := remote.DialOptions(srv.Addr(), remote.Options{Obs: clObs})
			if err != nil {
				return 0, 0, err
			}
			defer cl.Close()
			cls[i] = cl
		}
		start := time.Now()
		errs := make([]error, consumers)
		var wg sync.WaitGroup
		for i, cl := range cls {
			wg.Add(1)
			go func(i int, cl *remote.Client) {
				defer wg.Done()
				errs[i] = fetch(cl)
			}(i, cl)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		return wall, clObs.Sum("dooc_remote_client_bytes_in_total"), nil
	}

	// By value: every consumer downloads the full result vector.
	valueWall, valueBytes, err := fanOut(func(cl *remote.Client) error {
		data, _, err := cl.JobResult(prod.ID)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, prodBytes) {
			return fmt.Errorf("by-value consumer got divergent bytes")
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("by-value fan-out: %w", err)
	}

	// By reference: every consumer receives the handle — the payload stays
	// on the server, addressable for later chaining or resolve-on-demand.
	refWall, refBytes, err := fanOut(func(cl *remote.Client) error {
		h, _, err := cl.JobProxy(prod.ID)
		if err != nil {
			return err
		}
		if h.Length != int64(len(prodBytes)) {
			return fmt.Errorf("handle names %d bytes, result is %d", h.Length, len(prodBytes))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("by-reference fan-out: %w", err)
	}

	// Chained dataflow over the wire: submit B with A's handle as input and
	// collect B by reference too. The client's byte counter proves no
	// result vector crossed its link on the A->B hop.
	chainStart := time.Now()
	var hChain proxy.Handle
	hopBytes, err := func() (int64, error) {
		clObs := obs.NewRegistry()
		cl, err := remote.DialOptions(srv.Addr(), remote.Options{Obs: clObs})
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "chain", Iters: consumerIter, Input: hProd.Ref()})
		if err != nil {
			return 0, err
		}
		h, final, err := cl.JobProxy(st.ID)
		if err != nil {
			return 0, err
		}
		if final.State != "done" {
			return 0, fmt.Errorf("chained job finished %s", final.State)
		}
		hChain = h
		return clObs.Sum("dooc_remote_client_bytes_in_total"), nil
	}()
	if err != nil {
		return fmt.Errorf("chained submit: %w", err)
	}
	chainWallDone := time.Since(chainStart)

	// Bit-identity: the chained result equals one unchained
	// producerIter+consumerIter run from the producer's seed.
	chained, err := svc.ResolveProxy(hChain.Ref())
	if err != nil {
		return err
	}
	unchained, err := svc.Submit(jobs.SolveRequest{Tenant: "check", Iters: producerIter + consumerIter, Seed: 7})
	if err != nil {
		return err
	}
	ref, err := svc.Manager.Result(unchained.ID)
	if err != nil {
		return err
	}
	identical := bytes.Equal(chained, ref)

	payload := int64(len(prodBytes))
	rep := proxyReport{
		Experiment:        "proxy",
		Timestamp:         time.Now().UTC(),
		GoVersion:         runtime.Version(),
		Dim:               dim,
		K:                 k,
		Nodes:             nodes,
		ProducerIter:      producerIter,
		ConsumerIter:      consumerIter,
		Consumers:         consumers,
		PayloadBytes:      payload,
		ByValueWallMs:     float64(valueWall.Microseconds()) / 1e3,
		ByValueBytes:      valueBytes,
		ByRefWallMs:       float64(refWall.Microseconds()) / 1e3,
		ByRefBytes:        refBytes,
		ChainIdentical:    identical,
		ChainHopBytes:     hopBytes,
		ChainWallMs:       float64(chainWallDone.Microseconds()) / 1e3,
		ServerResolves:    benchObs.Sum("dooc_proxy_resolved_total"),
		ResolvedBytes:     benchObs.Sum("dooc_proxy_resolved_bytes_total"),
		HandlesRegistered: benchObs.Sum("dooc_proxy_registered_total"),
	}

	fmt.Printf("1 producer (dim=%d, %d iters, %d-byte result) fanned out to %d consumers over real TCP\n\n",
		dim, producerIter, payload, consumers)
	fmt.Printf("%-32s %12s %16s %16s\n", "mode", "wall", "client bytes", "bytes/consumer")
	fmt.Printf("%-32s %12v %16d %16d\n", "by-value (8x job-result)",
		valueWall.Round(time.Microsecond), valueBytes, valueBytes/consumers)
	fmt.Printf("%-32s %12v %16d %16d\n", "by-reference (8x job-proxy)",
		refWall.Round(time.Microsecond), refBytes, refBytes/consumers)
	fmt.Printf("\nresult-vector bytes on the client links: %d by value, %d by reference\n", valueBytes, refBytes)
	fmt.Printf("\nchained dataflow (B input = A's handle, both collected by reference):\n")
	fmt.Printf("  wall %v   client result bytes on the A->B hop: %d\n",
		chainWallDone.Round(time.Millisecond), hopBytes)
	fmt.Printf("  chained result bit-identical to unchained %d-iteration run: %v\n",
		producerIter+consumerIter, identical)
	fmt.Printf("server-side: %d handles registered, %d resolves, %d bytes materialized in-server\n",
		rep.HandlesRegistered, rep.ServerResolves, rep.ResolvedBytes)
	if !identical {
		return fmt.Errorf("chained result diverged from the by-value path")
	}
	if hopBytes != 0 {
		return fmt.Errorf("%d result bytes crossed the client link on the chained hop, want 0", hopBytes)
	}

	if proxyBenchOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(proxyBenchOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", proxyBenchOut)
	}
	return nil
}
