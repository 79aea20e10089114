package cluster

import "dooc/internal/obs"

// nodeMetrics are one cluster node's dooc_cluster_* series, resolved once
// at construction. They are the node's only event counts: Node.Counters
// reads them back, registry or no registry.
type nodeMetrics struct {
	forwardedReads    *obs.Counter
	forwardedReadMiss *obs.Counter
	forwardedBytes    *obs.Counter
	pushes            *obs.Counter
	pushAcks          *obs.Counter
	pushBytes         *obs.Counter
	replicaHits       *obs.Counter
	replicaStale      *obs.Counter
	replicaFills      *obs.Counter
	peerDeaths        *obs.Counter
	viewExchanges     *obs.Counter
	legacyRejections  *obs.Counter
	servedGets        *obs.Counter
	servedPuts        *obs.Counter
	proxyFetches      *obs.Counter
	proxyFetchBytes   *obs.Counter

	members      *obs.Gauge
	viewVersion  *obs.Gauge
	tableBlocks  *obs.Gauge
	tableBytes   *obs.Gauge
	replicaCount *obs.Gauge
	replicaBytes *obs.Gauge
}

func newNodeMetrics(reg *obs.Registry, self string) nodeMetrics {
	l := obs.L("peer", self)
	return nodeMetrics{
		forwardedReads:    reg.Counter("dooc_cluster_forwarded_reads_total", "block reads resolved over the ring from another peer", l),
		forwardedReadMiss: reg.Counter("dooc_cluster_forwarded_read_misses_total", "ring walks that found no peer holding the block", l),
		forwardedBytes:    reg.Counter("dooc_cluster_forwarded_bytes_total", "block bytes fetched from peers", l),
		pushes:            reg.Counter("dooc_cluster_pushes_total", "blocks pushed toward their ring owners", l),
		pushAcks:          reg.Counter("dooc_cluster_push_acks_total", "remote peers that acknowledged a pushed copy", l),
		pushBytes:         reg.Counter("dooc_cluster_push_bytes_total", "block bytes pushed to peers", l),
		replicaHits:       reg.Counter("dooc_cluster_replica_hits_total", "hot-block reads served from the local replica cache", l),
		replicaStale:      reg.Counter("dooc_cluster_replica_stale_total", "replica reads rejected by epoch mismatch and refetched", l),
		replicaFills:      reg.Counter("dooc_cluster_replica_fills_total", "hot blocks installed into the replica cache", l),
		peerDeaths:        reg.Counter("dooc_cluster_peer_deaths_total", "peers declared dead by the prober", l),
		viewExchanges:     reg.Counter("dooc_cluster_view_exchanges_total", "membership view gossip rounds completed", l),
		legacyRejections:  reg.Counter("dooc_cluster_legacy_rejections_total", "peers rejected from membership for lacking the cluster capability", l),
		servedGets:        reg.Counter("dooc_cluster_served_gets_total", "peer-get requests answered from the local block table", l),
		servedPuts:        reg.Counter("dooc_cluster_served_puts_total", "peer-put requests accepted into the local block table", l),
		proxyFetches:      reg.Counter("dooc_cluster_proxy_fetches_total", "proxy payloads resolved from their origin peer over the cluster", l),
		proxyFetchBytes:   reg.Counter("dooc_cluster_proxy_fetch_bytes_total", "proxy payload bytes fetched from origin peers", l),

		members:      reg.Gauge("dooc_cluster_members", "live members in the current view", l),
		viewVersion:  reg.Gauge("dooc_cluster_view_version", "version of the current membership view", l),
		tableBlocks:  reg.Gauge("dooc_cluster_table_blocks", "blocks held in the shard table for the ring", l),
		tableBytes:   reg.Gauge("dooc_cluster_table_bytes", "bytes held in the shard table for the ring", l),
		replicaCount: reg.Gauge("dooc_cluster_replica_blocks", "hot-block replicas resident in the cache", l),
		replicaBytes: reg.Gauge("dooc_cluster_replica_bytes", "bytes resident in the replica cache", l),
	}
}
