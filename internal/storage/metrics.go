package storage

import (
	"strconv"

	"dooc/internal/compress"
	"dooc/internal/obs"
)

// storeMetrics are one node's storage series in the shared obs registry,
// resolved once at construction so the hot paths touch only atomics. With a
// nil registry every field is nil and every operation a no-op.
type storeMetrics struct {
	readReqs         *obs.Counter
	writeReqs        *obs.Counter
	hits             *obs.Counter
	misses           *obs.Counter
	evictions        *obs.Counter
	blockLoads       *obs.Counter
	prefetchIssued   *obs.Counter
	prefetchLoads    *obs.Counter
	prefetchHits     *obs.Counter
	prefetchDeferred *obs.Counter
	overBudget       *obs.Counter
	peerProbes       *obs.Counter
	peerProbeMisses  *obs.Counter
	diskReadBytes    *obs.Counter
	diskWriteBytes   *obs.Counter
	peerBytes        *obs.Counter
	ioRetries        *obs.Counter

	compressBailouts *obs.Counter

	shardPushes     *obs.Counter
	shardDurable    *obs.Counter
	shardFetches    *obs.Counter
	shardFallbacks  *obs.Counter
	shardPushBytes  *obs.Counter
	shardFetchBytes *obs.Counter

	memUsed              *obs.Gauge
	compressRatioPercent *obs.Gauge

	leaseWait      *obs.Histogram
	ioReadSeconds  *obs.Histogram
	ioWriteSeconds *obs.Histogram
	encodeSeconds  *obs.Histogram
	decodeSeconds  *obs.Histogram

	// Per-codec byte counters are resolved lazily — which codecs appear
	// depends on the adaptive bail-out at runtime. Only the actor loop
	// touches the map; the counters themselves are atomics.
	reg      *obs.Registry
	node     obs.Label
	perCodec map[uint8]*codecCounters

	// Per-quota-group eviction counters, resolved lazily: groups come and
	// go with jobs. Only the actor loop touches the map.
	perGroup map[string]*obs.Counter
}

// codecCounters are one codec's byte series on one node.
type codecCounters struct {
	encRawBytes    *obs.Counter
	encStoredBytes *obs.Counter
	decStoredBytes *obs.Counter
	decRawBytes    *obs.Counter
}

// codec returns the byte counters for a codec ID, registering them on
// first use with node and codec labels.
func (m *storeMetrics) codec(id uint8) *codecCounters {
	if cc, ok := m.perCodec[id]; ok {
		return cc
	}
	name := "unknown"
	if c, ok := compress.ByID(id); ok {
		name = c.Name()
	}
	l := obs.L("codec", name)
	cc := &codecCounters{
		encRawBytes:    m.reg.Counter("dooc_storage_compress_raw_bytes_total", "logical block bytes fed to the encoder on spill", m.node, l),
		encStoredBytes: m.reg.Counter("dooc_storage_compress_stored_bytes_total", "frame bytes written to scratch", m.node, l),
		decStoredBytes: m.reg.Counter("dooc_storage_decompress_stored_bytes_total", "frame bytes read from scratch", m.node, l),
		decRawBytes:    m.reg.Counter("dooc_storage_decompress_raw_bytes_total", "logical block bytes produced by the decoder", m.node, l),
	}
	m.perCodec[id] = cc
	return cc
}

// quotaEvictions returns the group's eviction counter, registering it on
// first use with node and group labels.
func (m *storeMetrics) quotaEvictions(group string) *obs.Counter {
	if c, ok := m.perGroup[group]; ok {
		return c
	}
	c := m.reg.Counter("dooc_storage_quota_evictions_total", "blocks evicted by per-group quota enforcement", m.node, obs.L("group", group))
	m.perGroup[group] = c
	return c
}

// newStoreMetrics registers node's series. The shard tier's and the spill
// codec's families exist only on a store configured with that feature, so a
// store without it exports no series that could only read zero; the decode
// histogram is always there, since a store without a codec still reads the
// frames an earlier one wrote.
func newStoreMetrics(cfg *Config) storeMetrics {
	reg := cfg.Obs
	l := obs.L("node", strconv.Itoa(cfg.NodeID))
	m := storeMetrics{
		reg:      reg,
		node:     l,
		perCodec: make(map[uint8]*codecCounters),
		perGroup: make(map[string]*obs.Counter),

		readReqs:         reg.Counter("dooc_storage_read_requests_total", "read lease requests received", l),
		writeReqs:        reg.Counter("dooc_storage_write_requests_total", "write lease requests received", l),
		hits:             reg.Counter("dooc_storage_cache_hits_total", "read requests served from resident memory", l),
		misses:           reg.Counter("dooc_storage_cache_misses_total", "read requests that had to fetch", l),
		evictions:        reg.Counter("dooc_storage_evictions_total", "blocks reclaimed from memory", l),
		blockLoads:       reg.Counter("dooc_storage_block_loads_total", "complete blocks installed from disk or a peer", l),
		prefetchIssued:   reg.Counter("dooc_storage_prefetch_issued_total", "prefetch requests received", l),
		prefetchLoads:    reg.Counter("dooc_storage_prefetch_loads_total", "block fetches initiated by prefetch", l),
		prefetchHits:     reg.Counter("dooc_storage_prefetch_hits_total", "cache hits on prefetched blocks", l),
		prefetchDeferred: reg.Counter("dooc_storage_prefetch_deferred_total", "prefetched blocks dropped at admission: no room in the budget beside bytes no eviction may free (leased, in flight, prefetched and unread, or a written block's only copy)", l),
		overBudget:       reg.Counter("dooc_storage_over_budget_allocs_total", "allocations granted above the memory budget", l),
		peerProbes:       reg.Counter("dooc_storage_peer_probes_total", "random-peer probe messages sent", l),
		peerProbeMisses:  reg.Counter("dooc_storage_peer_probe_misses_total", "probes answered \"not here\"", l),
		diskReadBytes:    reg.Counter("dooc_storage_disk_read_bytes_total", "scratch-dir bytes read", l),
		diskWriteBytes:   reg.Counter("dooc_storage_disk_write_bytes_total", "scratch-dir bytes written", l),
		peerBytes:        reg.Counter("dooc_storage_peer_fetch_bytes_total", "bytes fetched from peer stores", l),
		ioRetries:        reg.Counter("dooc_storage_io_retries_total", "transient disk errors survived by the retry policy", l),

		memUsed: reg.Gauge("dooc_storage_mem_used_bytes", "resident block bytes", l),

		leaseWait:      reg.Histogram("dooc_storage_lease_wait_seconds", "time from lease request to grant", nil, l),
		ioReadSeconds:  reg.Histogram("dooc_storage_io_read_seconds", "block read latency incl. retries", nil, l),
		ioWriteSeconds: reg.Histogram("dooc_storage_io_write_seconds", "block write latency incl. retries", nil, l),
		decodeSeconds:  reg.Histogram("dooc_storage_compress_decode_seconds", "frame decode latency on load", nil, l),
	}
	if cfg.Codec != nil {
		m.compressBailouts = reg.Counter("dooc_storage_compress_bailouts_total", "blocks stored raw by the adaptive bail-out", l)
		m.compressRatioPercent = reg.Gauge("dooc_storage_compress_ratio_percent", "cumulative spill ratio, 100*raw/stored", l)
		m.encodeSeconds = reg.Histogram("dooc_storage_compress_encode_seconds", "block encode latency on spill", nil, l)
	}
	if cfg.Shard != nil {
		m.shardPushes = reg.Counter("dooc_storage_shard_pushes_total", "blocks pushed toward their cluster ring owners", l)
		m.shardDurable = reg.Counter("dooc_storage_shard_durable_total", "pushes acked by enough remote peers to be durable", l)
		m.shardFetches = reg.Counter("dooc_storage_shard_fetches_total", "blocks installed from the cluster shard tier", l)
		m.shardFallbacks = reg.Counter("dooc_storage_shard_fallbacks_total", "shard fetches that missed and fell back to the normal path", l)
		m.shardPushBytes = reg.Counter("dooc_storage_shard_push_bytes_total", "block bytes pushed to the shard tier", l)
		m.shardFetchBytes = reg.Counter("dooc_storage_shard_fetch_bytes_total", "block bytes fetched from the shard tier", l)
	}
	return m
}
