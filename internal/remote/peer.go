// Cluster peer verbs: the remote protocol's third personality. A server
// constructed with ServerOptions.Peer joins the sharded storage tier —
// other doocserve processes push owned blocks into it, fetch them back on
// miss, and exchange versioned membership views over the same
// hello-negotiated connection the storage and job verbs use. A block is a
// frame's raw payload after its gob header, read into an arena buffer on
// arrival, so it gets wire compression and checksum protection for free and
// never passes through gob or the collector.
//
// Capability gating: the peer verbs are the opcode table's rolePeer rows,
// and a cluster-enabled server advertises ClusterCapBit in its handshake
// hello mask. Against a server that does not (one started without a peer
// role) the client refuses every peer verb before sending it; the cluster
// layer checks Client.ClusterCapable at dial time and rejects such a server
// from ring membership with a typed error.

package remote

// ClusterCapBit is the handshake hello mask bit advertising the cluster
// peer verbs. The low bits of the mask byte carry codec capabilities
// (compress.Mask, IDs 0..3); bit 7 is reserved for this and bit 6 for
// ProxyCapBit.
const ClusterCapBit uint8 = 1 << 7

// PeerMember identifies one cluster member on the wire.
type PeerMember struct {
	ID   string
	Addr string
}

// PeerView is a versioned membership view. Higher versions supersede
// lower ones; every membership change (death, join) bumps the version on
// the node that observed it and gossips outward on view exchanges. From
// identifies the sender, so a receiver that does not know the sender yet
// can admit it (the join/rejoin path) even when the sender's view version
// is behind.
type PeerView struct {
	From    string
	Version uint64
	Members []PeerMember
}

// PeerHandler is the server-side cluster hook. internal/cluster.Node
// implements it; the interface lives here so remote does not import the
// cluster package.
type PeerHandler interface {
	// PeerPut stores a block at the given epoch on behalf of the ring.
	// durable pins the copy (the pusher relies on it for spill-free
	// eviction). A put older than the resident epoch reports ok=false.
	// data is lent for the call only: the server gives it back to
	// storage.SharedArena() when PeerPut returns, so a handler copies what
	// it keeps.
	PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (ok bool, err error)
	// PeerGet returns a held block and its epoch; held=false is a clean
	// miss (never an error). The returned bytes become the server's, which
	// writes them to the wire and then puts them into storage.SharedArena():
	// a handler returns a copy it will not touch again, never bytes it
	// keeps.
	PeerGet(array string, block int) (data []byte, epoch uint64, held bool, err error)
	// PeerDelete drops every held block of an array.
	PeerDelete(array string) error
	// PeerViewExchange merges the caller's view and returns this node's
	// (possibly updated) view — the gossip primitive.
	PeerViewExchange(v PeerView) PeerView
}

// ClusterCapable reports whether the server at the other end advertised
// the cluster peer verbs in the last (re)connect's handshake. False for a
// server running without a peer role.
func (cl *Client) ClusterCapable() bool { return cl.advertises(rolePeer) }

// PeerPut pushes one block of an array to the peer at the given epoch.
// ok=false means the peer already held a newer epoch and refused the
// rollback. Idempotent: a reconnect replay re-puts identical bytes. data is
// only read, and only until PeerPut returns.
func (cl *Client) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	resp, err := cl.call(&request{Op: opPeerPut, Array: array, Block: block, Epoch: epoch, Durable: durable, data: data})
	if err != nil {
		return false, err
	}
	return resp.Held, nil
}

// PeerGet fetches one block of an array from the peer. held=false is a
// clean miss. The block arrives in a buffer from storage.SharedArena() that
// becomes the caller's: put it back there when done with it (one left to the
// collector is lost to the arena, and a mapped one stays mapped).
func (cl *Client) PeerGet(array string, block int) (data []byte, epoch uint64, held bool, err error) {
	resp, err := cl.call(&request{Op: opPeerGet, Array: array, Block: block})
	if err != nil {
		return nil, 0, false, err
	}
	return resp.data, resp.Epoch, resp.Held, nil
}

// PeerDelete drops every block of an array held by the peer.
func (cl *Client) PeerDelete(array string) error {
	_, err := cl.call(&request{Op: opPeerDel, Array: array})
	return err
}

// PeerViewExchange sends this node's membership view and returns the
// peer's — one gossip round, also the liveness probe.
func (cl *Client) PeerViewExchange(v PeerView) (PeerView, error) {
	resp, err := cl.call(&request{Op: opPeerView, View: &v})
	if err != nil {
		return PeerView{}, err
	}
	return deref(resp.View), nil
}
