// Package cluster promotes the in-process storage network into a real
// multi-process tier: N doocserve peers form a consistent-hash ring over
// which written blocks are placed, forwarded, and (for hot arrays, the
// SpMV input vector) read-replicated.
//
// The paper's storage design is a partitioned, non-replicated global map
// with random-peer forwarding; this package keeps that shape but moves it
// across OS processes over the existing remote frame protocol (a gob
// header, then the block's raw bytes, CRC32-checked, after a capability
// hello):
//
//   - ring.go places every (array, block) on a deterministic walk of
//     virtual-node points, so membership changes remap a minimal key
//     fraction (~1/N on a single join or leave);
//   - node.go is the per-process runtime: a versioned membership view
//     gossiped over peer-view exchanges, a lazily dialed pool of
//     compress-negotiated remote clients, a prober that detects peer
//     death, and the owner-aware forwarding used by the storage layer
//     (storage.ShardBackend);
//   - table.go is the tier's one cache type, an epoch-tagged byte-budgeted
//     LRU: one instance holds the blocks this peer stores on behalf of the
//     ring — epoch-tagged so a deleted-and-recreated array can never serve
//     stale bytes — and a second caches hot blocks on the reading side,
//     invalidated by epoch bump on write-back.
//
// Failure model: a peer that stops answering is marked dead, the view
// version is bumped and gossiped, and the ring rehashes its keys onto
// survivors. Blocks pushed to two live remote peers ("durable") survive
// any single peer death; the storage layer only drops its local copy
// without a disk spill for such blocks, so a SIGKILLed peer costs at most
// re-forwarded reads, never data. Blocks with fewer remote copies keep the
// usual local-disk durability path.
package cluster

import "errors"

// ErrLegacyPeer reports a peer whose handshake does not advertise the
// cluster protocol capability (a server started without -node-id/-peers).
// Such a peer would reject peer verbs with opaque strings, so ring
// membership refuses it with this typed error instead.
var ErrLegacyPeer = errors.New("cluster: peer does not speak the cluster protocol")

// ErrNotMember reports an operation addressed to a node ID outside the
// current membership view.
var ErrNotMember = errors.New("cluster: unknown member")

// ErrClosed reports use of a closed cluster node.
var ErrClosed = errors.New("cluster: node closed")
