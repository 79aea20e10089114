// Command doocserve plays the I/O-node role: it serves a scratch directory
// of staged arrays (e.g. doocgen output for one node) over TCP, so compute
// processes on other machines — or other terminals — can fetch blocks with
// the internal/remote client. This is the paper's compute-node / I/O-node
// separation across real OS processes.
//
// Usage:
//
//	doocgen  -out /tmp/stage -dim 8000 -nnz 800000 -k 4 -nodes 1
//	doocserve -scratch /tmp/stage/node0 -listen 127.0.0.1:7777
//
// Then, from another process, dial 127.0.0.1:7777 with remote.Dial and
// ReadAll("A_000_000") etc.
//
// With -http, the server also exposes Prometheus-style metrics on
// GET /metrics (dooc_storage_* and dooc_remote_server_* series), liveness
// and readiness probes on /healthz and /readyz (readiness flips to 503 the
// moment a shutdown signal arrives), and the standard net/http/pprof
// profiling endpoints under /debug/pprof/.
//
// With -jobs, doocserve becomes a multi-tenant solver service instead of a
// plain block server: -scratch must point at a staged matrix root (doocgen
// -out), a core.System spanning the staged node count is built over it, and
// the TCP endpoint accepts the job verbs (submit/status/cancel/result/list
// — see doocrun -server for the client side). -max-jobs bounds concurrent
// jobs, -queue-depth bounds waiting ones, and -job-mem caps the aggregate
// admitted memory reservation; over-capacity submissions are rejected with
// typed errors, never queued blocking. The HTTP listener additionally
// serves GET /jobs, a JSON array of every job's status.
//
// A job's result lives in the proxy result plane: every completed job
// registers its iterate as a refcounted handle (name@epoch[@scope]) that
// clients stat, addref, release, and resolve over the wire, and that a
// later job can consume as its starting vector (doocrun -input-proxy)
// without the payload ever crossing a client link. The handle holds the
// server's one in-memory copy of the result and frees it on its last
// reference drop (doocrun -release); collecting a result by value does not
// drop it. Handles journal through -job-store and survive restart,
// resolving from the job's result file; without -job-store a released
// result is gone, and a result the per-tenant caps refuse fails its job.
// -proxy-ttl bounds unclaimed origin leases, and -proxy-max / -proxy-bytes
// cap per-tenant handles and resident bytes. The HTTP listener serves GET
// /proxies, the live handle table as JSON.
//
// With -node-id (and -peers), the process joins a peer-to-peer sharded
// storage ring spanning several doocserve processes: written blocks are
// pushed to their consistent-hash owners, misses are forwarded to the owner
// peer (a forwarded block is kept only by the store that asked for it), and
// a peer death fails the engine nodes mapped to it onto the survivors. The
// HTTP listener additionally serves GET /cluster, the live membership view
// and shard counters as JSON. Peers dial this node at -advertise (default
// -listen, which must then carry a concrete host: wildcard and host-less
// listen addresses are rejected because remote peers cannot dial them).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dooc/internal/cluster"
	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/remote"
	"dooc/internal/storage"
)

// parsePeers decodes the -peers flag: a comma-separated id=addr list.
func parsePeers(s string) ([]cluster.Member, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=addr)", part)
		}
		out = append(out, cluster.Member{ID: id, Addr: addr})
	}
	return out, nil
}

// deathHook late-binds the cluster's OnDeath callback: the cluster node
// must exist before the engine it notifies is built.
type deathHook struct {
	mu sync.Mutex
	fn func(id string)
}

func (h *deathHook) set(fn func(id string)) {
	h.mu.Lock()
	h.fn = fn
	h.mu.Unlock()
}

func (h *deathHook) call(id string) {
	h.mu.Lock()
	fn := h.fn
	h.mu.Unlock()
	if fn != nil {
		fn(id)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("doocserve: ")
	var (
		scratch   = flag.String("scratch", "", "scratch directory to serve (required)")
		listen    = flag.String("listen", "127.0.0.1:7777", "listen address")
		mem       = flag.Int64("mem", 1<<30, "server-side memory budget in bytes")
		stats     = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
		httpAddr  = flag.String("http", "", "HTTP address for /metrics and /debug/pprof (empty = off)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
		codecName = flag.String("codec", "", "compress scratch spills and wire payloads with this codec (empty = off, \"default\" = "+compress.Default().Name()+")")
		jobsMode  = flag.Bool("jobs", false, "run as a multi-tenant solver service over the staged matrix in -scratch")
		maxJobs   = flag.Int("max-jobs", 2, "jobs mode: maximum concurrently running jobs")
		queueDep  = flag.Int("queue-depth", 8, "jobs mode: maximum queued jobs before submissions are rejected")
		jobMem    = flag.Int64("job-mem", 0, "jobs mode: aggregate memory budget for admitted jobs (0 = unlimited)")
		workers   = flag.Int("workers", 2, "jobs mode: computing filters per node")
		jobStore  = flag.String("job-store", "", "jobs mode: durable job-store directory — journal every transition, recover queued/interrupted jobs on boot (empty = in-memory)")
		jobHist   = flag.Int("job-history", 1024, "jobs mode: terminal jobs retained in the durable store across compactions")
		traceOut  = flag.String("trace", "", "jobs mode: write a Chrome trace of job lifecycle, engine, and storage spans to this file at shutdown")
		sloQueue  = flag.Int64("slo-queue-ms", 0, "jobs mode: queue-wait SLO objective in milliseconds (0 = track latency without breach accounting)")
		sloRun    = flag.Int64("slo-run-ms", 0, "jobs mode: run-latency SLO objective in milliseconds (0 = track latency without breach accounting)")
		flightN   = flag.Int("flight-events", 0, "jobs mode: per-job flight-recorder ring size (0 = default)")
		proxyTTL  = flag.Duration("proxy-ttl", 0, "jobs mode: TTL on a result handle's origin lease (0 = never expires)")
		proxyMax  = flag.Int("proxy-max", 0, "jobs mode: per-tenant live proxy-handle cap (0 = unlimited)")
		proxyByte = flag.Int64("proxy-bytes", 0, "jobs mode: per-tenant resident proxy payload byte cap (0 = unlimited)")
		nodeID    = flag.String("node-id", "", "cluster: this peer's stable identity on the sharded-storage ring (empty = cluster off)")
		advertise = flag.String("advertise", "", "cluster: address other peers dial to reach this node (default -listen; required when -listen has a wildcard or empty host)")
		peersFlag = flag.String("peers", "", "cluster: comma-separated id=addr list of the other doocserve peers")
		vnodes    = flag.Int("vnodes", 0, "cluster: virtual nodes per member on the consistent-hash ring (0 = default)")
		tableMem  = flag.Int64("table-mem", 0, "cluster: byte budget for blocks held on behalf of the ring (0 = default)")
	)
	flag.Parse()
	if *scratch == "" {
		flag.Usage()
		os.Exit(2)
	}
	var codec compress.Codec
	switch *codecName {
	case "", "none":
	case "default":
		codec = compress.Default()
	default:
		var ok bool
		if codec, ok = compress.ByName(*codecName); !ok {
			log.Fatalf("unknown codec %q (registered: %v)", *codecName, compress.Names())
		}
	}
	reg := obs.NewRegistry()
	health := &jobs.Health{}

	// Cluster membership: with -node-id set, this process joins the
	// peer-to-peer sharded storage ring. The node is built before the engine
	// and the RPC listener because both hang off it — the engine pushes
	// written blocks through it (core.Options.Shard) and the listener serves
	// the peer verbs for it (remote.ServerOptions.Peer).
	var (
		clusterNode *cluster.Node
		hook        *deathHook
		memberIDs   []string
	)
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatal(err)
		}
		// The gossiped self address must be dialable from other hosts: a
		// host-less or wildcard -listen (":7777", "0.0.0.0:7777") would be
		// dialed by remote peers as localhost, silently mis-routing peer
		// traffic in any multi-host deployment.
		selfAddr := *advertise
		if selfAddr == "" {
			host, _, herr := net.SplitHostPort(*listen)
			if herr != nil || host == "" {
				log.Fatalf("cluster: -listen %q has no dialable host; set -advertise to this node's reachable address", *listen)
			}
			if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
				log.Fatalf("cluster: -listen %q is a wildcard address peers cannot dial; set -advertise to this node's reachable address", *listen)
			}
			selfAddr = *listen
		}
		memberIDs = append(memberIDs, *nodeID)
		for _, p := range peers {
			memberIDs = append(memberIDs, p.ID)
		}
		sort.Strings(memberIDs)
		hook = &deathHook{}
		clusterNode, err = cluster.NewNode(cluster.Config{
			Self: cluster.Member{ID: *nodeID, Addr: selfAddr},
			// Job-scoped array names are numbered by this process's own job
			// counter; scoping them with the node ID keeps two peers' "job1:"
			// arrays from colliding in the shared ring.
			Scope:      *nodeID,
			Peers:      peers,
			VNodes:     *vnodes,
			TableBytes: *tableMem,
			Obs:        reg,
			Codec:      codec,
			OnDeath:    hook.call,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer clusterNode.Close()
		log.Printf("cluster node %q on a ring of %d members", *nodeID, len(memberIDs))
	} else if *peersFlag != "" {
		log.Fatal("-peers requires -node-id")
	}

	// Build the served store: a plain scratch-directory store, or — in jobs
	// mode — node 0 of a full system spanning the staged matrix, with a
	// solver service in front.
	var (
		srv        *remote.Server
		svc        *jobs.SolverService
		statsStore *storage.Store
		proxyReg   *proxy.Registry
	)
	var tracer *obs.Tracer
	var slo *jobs.SLOTracker
	if *jobsMode {
		info, err := core.DiscoverStagedMatrix(*scratch)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("staged matrix: dim=%d K=%d nodes=%d nnz=%d (%.1f MB)",
			info.Dim, info.K, info.Nodes, info.NNZ, float64(info.Bytes)/1e6)
		if *traceOut != "" {
			tracer = obs.NewTracer()
		}
		slo = jobs.NewSLOTracker(jobs.SLOConfig{
			QueueObjective: time.Duration(*sloQueue) * time.Millisecond,
			RunObjective:   time.Duration(*sloRun) * time.Millisecond,
			Obs:            reg,
		})
		// Avoid a typed-nil interface: only assign when the cluster is on.
		var shard storage.ShardBackend
		if clusterNode != nil {
			shard = clusterNode
		}
		// Neither data-aware reordering nor prefetching can change a
		// result: a sum reads its inputs in a fixed order whatever order
		// the multiplies ran in.
		sys, err := core.NewSystem(core.Options{
			Nodes:          info.Nodes,
			WorkersPerNode: *workers,
			MemoryBudget:   *mem,
			ScratchRoot:    *scratch,
			PrefetchWindow: 2,
			Reorder:        true,
			Obs:            reg,
			Codec:          codec,
			Trace:          tracer,
			Shard:          shard,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sys.Close()
		if clusterNode != nil {
			// A dead peer takes its share of engine nodes with it: engine
			// node i maps to the i mod M-th member of the initial sorted
			// membership. The self member's share never fails this way — a
			// process cannot observe its own death.
			ids := memberIDs
			self := *nodeID
			hook.set(func(dead string) {
				if dead == self {
					return
				}
				for i := 0; i < sys.Nodes(); i++ {
					if ids[i%len(ids)] == dead {
						log.Printf("cluster: peer %s dead; failing engine node %d onto survivors", dead, i)
						_ = sys.FailNode(i)
					}
				}
			})
		}
		jcfg := jobs.Config{
			MaxRunning: *maxJobs, QueueDepth: *queueDep, MemoryBudget: *jobMem, Obs: reg,
			Trace: tracer, SLO: slo, FlightEvents: *flightN,
		}
		if *jobStore != "" {
			store, err := jobstore.Open(*jobStore, jobstore.Options{RetainHistory: *jobHist, Obs: reg})
			if err != nil {
				log.Fatalf("opening job store: %v", err)
			}
			defer store.Close()
			jcfg.Store = store
		}
		// The proxy registry shares the job store's WAL, so handles and
		// refcounts survive restart alongside the jobs that made them.
		proxyReg = proxy.NewRegistry(proxy.Config{
			Store:             jcfg.Store,
			Obs:               reg,
			Scope:             *nodeID,
			TTL:               *proxyTTL,
			MaxPerTenant:      *proxyMax,
			MaxBytesPerTenant: *proxyByte,
		})
		defer proxyReg.Close()
		jcfg.Proxy = proxyReg
		if clusterNode != nil {
			jcfg.ProxyFetch = clusterNode.ProxyFetch
		}
		svc = jobs.NewSolverService(sys,
			core.SpMVConfig{Dim: info.Dim, K: info.K, Nodes: info.Nodes},
			jcfg)
		if *jobStore != "" {
			rec, err := svc.Recover()
			if err != nil {
				log.Fatalf("recovering job store: %v", err)
			}
			torn := ""
			if rec.Torn {
				torn = ", torn WAL tail repaired"
			}
			log.Printf("job store %s: replayed in %v (%d historical, %d requeued, %d resumed, %d unrecoverable%s)",
				*jobStore, rec.ReplayDuration.Round(time.Microsecond), rec.Historical, rec.Requeued, rec.Resumed, rec.Failed, torn)
		}
		statsStore = sys.Store(0)
		sopts := remote.ServerOptions{Obs: reg, Codec: codec, Jobs: svc}
		if clusterNode != nil {
			sopts.Peer = clusterNode
		}
		srv, err = remote.ListenOptions(statsStore, *listen, sopts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("job service on %s (max-jobs=%d queue-depth=%d job-mem=%d)", srv.Addr(), *maxJobs, *queueDep, *jobMem)
		log.Printf("proxy result plane on (ttl=%v max-per-tenant=%d bytes-per-tenant=%d)", *proxyTTL, *proxyMax, *proxyByte)
		if *proxyTTL > 0 {
			// TTL sweeper: expire origin leases a quarter-TTL late at worst.
			period := *proxyTTL / 4
			if period < 100*time.Millisecond {
				period = 100 * time.Millisecond
			}
			go func() {
				for range time.Tick(period) {
					if n := proxyReg.Sweep(time.Now()); n > 0 {
						log.Printf("proxy: expired %d origin leases", n)
					}
				}
			}()
		}
		// /healthz detail: SLO standings per tenant, so a probe shows burn
		// without scraping /metrics.
		health.SetDetail(func() any {
			return struct {
				SLO []jobs.SLOSummary `json:"slo"`
			}{slo.Summary()}
		})
	} else {
		st, err := storage.NewLocal(storage.Config{MemoryBudget: *mem, ScratchDir: *scratch, IOWorkers: 4, Obs: reg, Codec: codec})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		statsStore = st
		sopts := remote.ServerOptions{Obs: reg, Codec: codec}
		if clusterNode != nil {
			sopts.Peer = clusterNode
		}
		srv, err = remote.ListenOptions(st, *listen, sopts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %s on %s", *scratch, srv.Addr())
	}
	if codec != nil {
		log.Printf("codec %s on scratch spills and negotiated wire payloads", codec.Name())
	}

	var httpSrv *http.Server
	if *httpAddr != "" {
		// net/http/pprof registered its handlers on DefaultServeMux at
		// import; add /metrics and the probes beside them.
		http.Handle("/metrics", obs.Handler(reg))
		http.HandleFunc("/healthz", health.Healthz)
		http.HandleFunc("/readyz", health.Readyz)
		if svc != nil {
			http.HandleFunc("/jobs", svc.ServeJobs)
			http.HandleFunc("/jobs/history", svc.ServeHistory)
			http.HandleFunc("/jobs/", svc.ServeJobItem)
			http.HandleFunc("/proxies", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(proxyReg.List())
			})
		}
		if clusterNode != nil {
			http.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(clusterNode.Status())
			})
		}
		httpSrv = &http.Server{Addr: *httpAddr}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics, pprof on http://%s/debug/pprof/", *httpAddr, *httpAddr)
	}

	if *stats > 0 {
		go func() {
			for range time.Tick(*stats) {
				s := statsStore.Stats()
				fmt.Printf("requests=%d out=%.1fMB in=%.1fMB disk-read=%.1fMB resident=%.1fMB\n",
					srv.Requests(), float64(srv.BytesOut())/1e6, float64(srv.BytesIn())/1e6,
					float64(s.BytesReadDisk)/1e6, float64(s.MemUsed)/1e6)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Readiness flips first so load balancers stop sending work, then the
	// job manager drains (cancelling stragglers at the timeout), then the
	// RPC and HTTP listeners shut down.
	health.SetDraining(true)
	log.Printf("draining (up to %v) after %d requests", *drain, srv.Requests())
	if svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := svc.Manager.DrainContext(ctx)
		cancel()
		if err != nil {
			if *jobStore != "" {
				// Durable mode: the interrupted jobs are journaled (the drain
				// marker too) and will resume from their checkpoints on the
				// next boot — no need to burn their progress by cancelling.
				log.Printf("drain timeout: outstanding jobs stay journaled and resume on next start")
			} else {
				log.Printf("drain timeout: cancelling outstanding jobs")
				for _, j := range svc.Manager.List() {
					_ = svc.Manager.Cancel(j.ID)
				}
				_ = svc.Manager.DrainContext(context.Background())
			}
		}
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		_ = httpSrv.Shutdown(ctx)
		cancel()
	}
	srv.Shutdown(*drain)
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Printf("writing trace: %v", err)
		} else {
			log.Printf("wrote %d trace events to %s", tracer.Len(), *traceOut)
		}
	}
	log.Printf("shut down after %d requests", srv.Requests())
}
