// Command doocrun executes out-of-core iterated SpMV over a staged block
// set (produced by doocgen or core.StageMatrix), printing per-run
// statistics and, optionally, an ASCII Gantt chart of the real execution.
//
// Usage:
//
//	doocrun -dir /tmp/stage -iters 4 -mem 67108864 -gantt
//
// With -server, doocrun is instead a thin client of a doocserve -jobs
// service: it submits one solve job (tenant, priority, iters, seed, and
// optional per-job memory/scratch quotas), blocks for the result, and
// prints the result vector's SHA-256 and L2 norm — two submissions with
// equal seeds and iterations print identical hashes, which is how the CI
// smoke test checks concurrent jobs for bit-identical results.
//
//	doocrun -server 127.0.0.1:7777 -tenant alice -priority 5 -iters 4 -seed 1
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/remote"
	"dooc/internal/storage"
)

// codecByFlag resolves a -codec flag value: empty disables compression,
// "default" picks the registry default, anything else must be a registered
// codec name.
func codecByFlag(name string) compress.Codec {
	switch name {
	case "", "none":
		return nil
	case "default":
		return compress.Default()
	}
	c, ok := compress.ByName(name)
	if !ok {
		log.Fatalf("unknown codec %q (registered: %s)", name, strings.Join(compress.Names(), ", "))
	}
	return c
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("doocrun: ")
	var (
		dir       = flag.String("dir", "", "staged matrix directory (required)")
		iters     = flag.Int("iters", 4, "SpMV iterations")
		workers   = flag.Int("workers", 2, "computing filters per node")
		mem       = flag.Int64("mem", 1<<30, "per-node memory budget in bytes")
		prefetch  = flag.Int("prefetch", 2, "prefetch window: ready tasks whose data are kept in memory, the one picked included (0 or 1: none prefetched)")
		reorder   = flag.Bool("reorder", true, "enable data-aware task reordering")
		seed      = flag.Int64("seed", 1, "starting-vector seed")
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt of the execution")
		metrics   = flag.Bool("metrics", false, "print a metrics snapshot after the run")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		validate  = flag.String("validate-trace", "", "validate a Chrome trace-event JSON file and exit (CI smoke mode)")
		causal    = flag.String("validate-causal", "", "validate that comma-separated Chrome trace files form one causal tree (shared trace ID, no orphan spans) and exit (CI smoke mode)")
		codecName = flag.String("codec", "", "compress scratch spills with this codec (empty = off, \"default\" = "+compress.Default().Name()+")")
		server    = flag.String("server", "", "submit the run as a job to a doocserve -jobs service at this address instead of running locally")
		tenant    = flag.String("tenant", "default", "job mode: tenant name for scheduling")
		priority  = flag.Int("priority", 0, "job mode: priority (higher runs earlier)")
		jobMem    = flag.Int64("job-mem", 0, "job mode: per-job aggregate cache budget in bytes (0 = none)")
		jobScr    = flag.Int64("job-scratch", 0, "job mode: per-job aggregate scratch ceiling in bytes (0 = unlimited)")
		jobKey    = flag.String("job-key", "", "job mode: idempotency key — a resubmit with the same key (retry, reconnect, server restart) returns the existing job instead of starting a duplicate")
		proxyOut  = flag.Bool("proxy", false, "job mode: collect the job's result HANDLE (pass-by-reference) instead of its bytes — prints name@epoch[@scope] and the registered sha256; the vector stays on the server")
		inputRef  = flag.String("input-proxy", "", "job mode: chain the job's starting vector from this proxy handle (name@epoch[@scope]) instead of the seed — the payload never crosses the client link")
		resolveR  = flag.String("resolve", "", "job client: resolve this proxy handle at -server, print its payload summary, and exit")
		releaseR  = flag.String("release", "", "job client: release this proxy handle at -server (an anonymous reference, or with none outstanding the origin lease), print remaining refs, and exit")
	)
	flag.Parse()
	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.ValidateTrace(data); err != nil {
			log.Fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: valid Chrome trace\n", *validate)
		return
	}
	if *causal != "" {
		files := strings.Split(*causal, ",")
		blobs := make([][]byte, 0, len(files))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				log.Fatal(err)
			}
			blobs = append(blobs, data)
		}
		if err := obs.ValidateCausal(blobs...); err != nil {
			log.Fatalf("%s: %v", *causal, err)
		}
		fmt.Printf("%s: one causal trace tree across %d file(s)\n", *causal, len(files))
		return
	}
	if *server != "" {
		if *resolveR != "" || *releaseR != "" {
			proxyVerb(*server, *resolveR, *releaseR)
			return
		}
		submitJob(*server, *tenant, *priority, *iters, *seed, *jobMem, *jobScr, *jobKey, *tracePath, *inputRef, *proxyOut)
		return
	}
	if *resolveR != "" || *releaseR != "" || *inputRef != "" || *proxyOut {
		log.Fatal("-proxy, -input-proxy, -resolve, and -release need -server")
	}
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	info, err := core.DiscoverStagedMatrix(*dir)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("staged matrix: dim=%d K=%d nodes=%d nnz=%d (%.1f MB)",
		info.Dim, info.K, info.Nodes, info.NNZ, float64(info.Bytes)/1e6)

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	sys, err := core.NewSystem(core.Options{
		Nodes:          info.Nodes,
		WorkersPerNode: *workers,
		MemoryBudget:   *mem,
		ScratchRoot:    *dir,
		PrefetchWindow: *prefetch,
		Reorder:        *reorder,
		Seed:           *seed,
		Obs:            reg,
		Trace:          tracer,
		Codec:          codecByFlag(*codecName),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(*seed))
	x0 := make([]float64, info.Dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	cfg := core.SpMVConfig{Dim: info.Dim, K: info.K, Iters: *iters, Nodes: info.Nodes}
	res, err := core.RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		log.Fatal(err)
	}

	st := res.Stats
	flops := 2 * float64(info.NNZ) * float64(*iters)
	fmt.Printf("time            %v\n", st.Wall)
	fmt.Printf("gflop/s         %.3f\n", flops/st.Wall.Seconds()/1e9)
	fmt.Printf("disk bytes read %d\n", st.BytesReadDisk())
	fmt.Printf("over-budget     %d allocations\n", st.OverBudgetAllocs())
	if raw, stored := st.CompressRawBytes(), st.CompressStoredBytes(); raw > 0 {
		fmt.Printf("spill codec     %.2fx (%d raw -> %d stored, %d bail-outs)\n",
			float64(raw)/float64(stored), raw, stored, st.CompressBailouts())
	}
	fmt.Printf("peer bytes      %d\n", st.PeerBytes())
	for n := 0; n < info.Nodes; n++ {
		fmt.Printf("node %d tasks    %d\n", n, st.TasksPerNode[n])
	}
	if *gantt {
		printGantt(st)
	}
	if *metrics {
		printMetrics(reg)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote %d trace events to %s\n", tracer.Len(), *tracePath)
	}
}

// submitJob runs the job-client mode: submit one solve to a doocserve
// -jobs service, block for the result, and print a deterministic summary.
// With tracePath set, the client stamps a fresh 128-bit trace ID on the
// submission — the server's job, engine, and storage spans all join it —
// and writes its own side of the causal tree (root, submit, await spans)
// as a Chrome trace file.
func submitJob(addr, tenant string, priority, iters int, seed, jobMem, jobScratch int64, key, tracePath, inputRef string, proxyOut bool) {
	var (
		tracer *obs.Tracer
		root   obs.SpanContext
	)
	if tracePath != "" {
		tracer = obs.NewTracer()
		root = obs.NewSpanContext()
		tracer.SetProcessName(obs.PidClient, "doocrun")
		tracer.SetThreadName(obs.PidClient, 0, "client")
		log.Printf("trace %s", root.Trace)
	}
	req := jobs.SolveRequest{
		Tenant:       tenant,
		Priority:     priority,
		Iters:        iters,
		Seed:         seed,
		MemoryBytes:  jobMem,
		ScratchBytes: jobScratch,
		Key:          key,
		Trace:        root,
	}
	if inputRef != "" {
		ref, err := proxy.ParseRef(inputRef)
		if err != nil {
			log.Fatal(err)
		}
		req.Input = ref
	}
	clientStart := time.Now()
	// The client's own registry counts received payload bytes, so the
	// by-reference path can PROVE no result vector crossed this link.
	clObs := obs.NewRegistry()
	cl, err := remote.DialOptions(addr, remote.Options{Obs: clObs})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	submitStart := time.Now()
	st, err := cl.SubmitJob(req)
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	if tracer != nil {
		tracer.SpanCtx("submit", "client", obs.PidClient, 0, submitStart, time.Now(),
			root.Child(), root.Span, map[string]any{"job": st.ID, "tenant": tenant})
	}
	log.Printf("job %d submitted (tenant=%s priority=%d state=%s)", st.ID, st.Tenant, st.Priority, st.State)
	if proxyOut {
		h, final, err := cl.JobProxy(st.ID)
		if err != nil {
			log.Fatalf("job %d: %v", st.ID, err)
		}
		fmt.Printf("job        %d\n", st.ID)
		fmt.Printf("state      %s\n", final.State)
		fmt.Printf("proxy      %s\n", h)
		fmt.Printf("length     %d\n", h.Length)
		fmt.Printf("result     sha256=%s\n", h.SHA256)
		fmt.Printf("queue-wait %.3fs\n", final.QueueWait)
		fmt.Printf("recv-bytes %d\n", clObs.Sum("dooc_remote_client_bytes_in_total"))
		return
	}
	awaitStart := time.Now()
	data, final, err := cl.JobResult(st.ID)
	if err != nil {
		log.Fatalf("job %d: %v", st.ID, err)
	}
	if tracer != nil {
		now := time.Now()
		tracer.SpanCtx("await result", "client", obs.PidClient, 0, awaitStart, now,
			root.Child(), root.Span, map[string]any{"job": st.ID})
		tracer.SpanCtx("doocrun "+tenant, "client", obs.PidClient, 0, clientStart, now,
			root, obs.SpanID{}, map[string]any{"job": st.ID, "tenant": tenant})
		if err := tracer.WriteFile(tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		log.Printf("wrote %d client trace events to %s", tracer.Len(), tracePath)
	}
	x := storage.DecodeFloat64s(data)
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	fmt.Printf("job        %d\n", st.ID)
	fmt.Printf("state      %s\n", final.State)
	if final.TraceID != "" {
		fmt.Printf("trace      %s\n", final.TraceID)
	}
	fmt.Printf("dim        %d\n", len(x))
	fmt.Printf("result     sha256=%x\n", sha256.Sum256(data))
	fmt.Printf("l2norm     %.12e\n", math.Sqrt(norm))
	fmt.Printf("queue-wait %.3fs\n", final.QueueWait)
	if !final.FinishedAt.IsZero() && !final.StartedAt.IsZero() {
		fmt.Printf("run-time   %.3fs\n", final.FinishedAt.Sub(final.StartedAt).Seconds())
	}
}

// proxyVerb runs the standalone proxy-handle client verbs: -resolve prints
// a handle's payload summary (the bytes cross the wire once, on demand);
// -release drops a reference and prints what remains.
func proxyVerb(addr, resolveRef, releaseRef string) {
	cl, err := remote.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if resolveRef != "" {
		ref, err := proxy.ParseRef(resolveRef)
		if err != nil {
			log.Fatal(err)
		}
		data, h, err := cl.ResolveProxy(ref)
		if err != nil {
			log.Fatalf("resolve %s: %v", ref, err)
		}
		x := storage.DecodeFloat64s(data)
		var norm float64
		for _, v := range x {
			norm += v * v
		}
		fmt.Printf("proxy      %s\n", h)
		fmt.Printf("dim        %d\n", len(x))
		fmt.Printf("result     sha256=%x\n", sha256.Sum256(data))
		fmt.Printf("l2norm     %.12e\n", math.Sqrt(norm))
	}
	if releaseRef != "" {
		ref, err := proxy.ParseRef(releaseRef)
		if err != nil {
			log.Fatal(err)
		}
		refs, err := cl.ProxyRelease(ref, "")
		if err != nil {
			log.Fatalf("release %s: %v", ref, err)
		}
		fmt.Printf("released   %s\n", ref)
		fmt.Printf("refs-left  %d\n", refs)
	}
}

// printMetrics summarizes the registry's headline series and then dumps the
// full Prometheus exposition.
func printMetrics(reg *obs.Registry) {
	fmt.Println("\n============ metrics snapshot ============")
	hits := reg.Sum("dooc_storage_cache_hits_total")
	misses := reg.Sum("dooc_storage_cache_misses_total")
	if total := hits + misses; total > 0 {
		fmt.Printf("storage cache hit rate: %.1f%% (%d hits, %d misses)\n",
			100*float64(hits)/float64(total), hits, misses)
	}
	loads := reg.Sum("dooc_storage_prefetch_loads_total")
	phits := reg.Sum("dooc_storage_prefetch_hits_total")
	if loads > 0 {
		fmt.Printf("prefetch hit rate: %.1f%% (%d of %d prefetched blocks were hit)\n",
			100*float64(phits)/float64(loads), phits, loads)
	}
	fmt.Printf("allocations over the memory budget: %d\n", reg.Sum("dooc_storage_over_budget_allocs_total"))
	fmt.Println("\nfull exposition:")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Printf("metrics: %v", err)
	}
}

// printGantt renders the run's events as one text lane per node.
func printGantt(st *core.RunStats) {
	if len(st.Events) == 0 {
		return
	}
	events := append([]core.Event(nil), st.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].Start.Before(events[j].Start) })
	t0 := events[0].Start
	var end float64
	for _, e := range events {
		if d := e.End.Sub(t0).Seconds(); d > end {
			end = d
		}
	}
	const width = 100
	scale := width / end
	byNode := map[int][]core.Event{}
	maxNode := 0
	for _, e := range events {
		byNode[e.Node] = append(byNode[e.Node], e)
		if e.Node > maxNode {
			maxNode = e.Node
		}
	}
	fmt.Printf("\nGantt (total %.3fs, %d columns):\n", end, width)
	for n := 0; n <= maxNode; n++ {
		lane := []rune(strings.Repeat(".", width))
		for _, e := range byNode[n] {
			s := int(e.Start.Sub(t0).Seconds() * scale)
			f := int(e.End.Sub(t0).Seconds() * scale)
			if f >= width {
				f = width - 1
			}
			mark := 'M'
			if e.Kind == "sum" {
				mark = 'R'
			}
			for i := s; i <= f; i++ {
				lane[i] = mark
			}
		}
		fmt.Printf("node%-2d |%s|\n", n, string(lane))
	}
	fmt.Println("M = multiply task, R = reduction, . = idle/IO wait")
}
