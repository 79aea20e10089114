package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dooc/internal/compress"
	"dooc/internal/obs"
	"dooc/internal/remote"
	"dooc/internal/storage"
)

// Member identifies one cluster peer: a stable node ID and the TCP
// address its doocserve process listens on.
type Member struct {
	ID   string
	Addr string
}

// Config builds a Node.
type Config struct {
	// Self is this process's identity. Self.Addr is what other peers dial;
	// it must match the doocserve listen address.
	Self Member
	// Peers are the other expected members at startup. Peers that turn out
	// to be servers without the cluster role are rejected from membership
	// on first contact (ErrLegacyPeer); peers that never answer are marked
	// dead only after they have been seen alive once, so a slow-starting
	// cluster does not eat spurious deaths.
	Peers []Member
	// Scope, when non-empty, namespaces every array name this node
	// originates (FetchBlock/PushBlock/InvalidateArray) as
	// "<scope>\x00<name>" ring-wide. Array names that are only unique
	// within one process — doocserve's job-scoped "jobN:..." arrays,
	// numbered by a per-process counter — MUST be scoped with a
	// cluster-unique value (doocserve uses the node ID), or two peers
	// accepting jobs would collide on "job1:..." keys and silently serve
	// each other's bytes. Empty keeps a single shared namespace, for
	// deployments whose array names are already cluster-unique. The scope
	// must not contain NUL. Peer verbs are exempt: wire names arrive
	// already scoped by their origin.
	Scope string
	// VNodes is the virtual-node count per member (DefaultVNodes when 0).
	VNodes int
	// Obs, when non-nil, receives the node's dooc_cluster_* series.
	Obs *obs.Registry
	// Codec, when non-nil, compresses inter-peer block traffic.
	Codec compress.Codec
	// Hot is inert: a fetched block lives only in the store that asked for
	// it, so no array is read-replicated. The field stays declared only
	// because bench/ sets it.
	Hot func(array string) bool
	// TableBytes bounds the shard table (DefaultTableBytes when 0).
	TableBytes int64
	// ProbeInterval paces the gossip/liveness prober (default 250ms).
	ProbeInterval time.Duration
	// RPCTimeout bounds each inter-peer round trip (default 2s).
	RPCTimeout time.Duration
	// OnDeath, when non-nil, is called (on its own goroutine) once per
	// peer declared dead — the hook doocserve uses to fail the engine
	// nodes mapped onto that peer so their tasks re-execute on survivors.
	OnDeath func(id string)
	// Logf, when non-nil, receives membership event lines.
	Logf func(format string, args ...any)
}

// ReplicateCopies is how many ring-walk owners a written block is pushed
// to, and DurableCopies how many *remote* acks make the block durable —
// durable blocks survive any single peer death, so the pusher's storage
// layer may drop its local copy without a disk spill. A self-owned copy
// lands in the local table (it serves other peers' reads) but does not
// count toward durability: it dies with the pusher.
const (
	ReplicateCopies = 2
	DurableCopies   = 2
	fetchCandidates = 3
)

// Counters is a snapshot of a node's event counts, read from the node's
// dooc_cluster_* obs series (which count with or without a registry).
type Counters struct {
	ForwardedReads      int64
	ForwardedReadMisses int64
	ForwardedBytes      int64
	Pushes              int64
	PushAcks            int64
	PushBytes           int64
	PeerDeaths          int64
	LegacyRejections    int64
	ServedGets          int64
	ServedPuts          int64
	ViewExchanges       int64
}

// Status is the /cluster endpoint's payload: the node's identity, its
// current membership view, shard residency, and event counters.
type Status struct {
	Self        string
	Addr        string
	Version     uint64
	Members     []Member
	Dead        []string
	TableBlocks int
	TableBytes  int64
	Counters    Counters
}

// arrayEpochs tracks the write epochs this node has assigned or observed
// for one array. floor carries the high-water mark across a delete —
// a recreated array's pushes start above every epoch the old incarnation
// ever used, which is what makes a straggler's old-incarnation copy
// detectable.
type arrayEpochs struct {
	floor  uint64
	blocks map[int]uint64
}

// Node is the per-process cluster runtime: membership view, consistent-
// hash ring, lazily dialed peer clients, one shard table, and the liveness
// prober. It implements remote.PeerHandler (the server-side verbs) and the
// storage layer's shard backend (FetchBlock / PushBlock / InvalidateArray).
// All methods are safe for concurrent use.
type Node struct {
	cfg     Config
	table   *BlockTable // owner copies held for the ring; durable puts are pinned
	metrics nodeMetrics

	mu      sync.Mutex
	members map[string]Member
	dead    map[string]bool
	seen    map[string]bool // peers successfully contacted at least once
	version uint64
	ring    *Ring
	epochs  map[string]*arrayEpochs
	// pendingDel tracks per-array delete fan-outs not yet acknowledged:
	// array -> member IDs still owing an ack. The prober retries them every
	// tick until each member acks or is expelled, so a peer that missed a
	// delete (network blip, restart mid-RPC) still drops its copies once
	// reachable again. Entries survive a member's death on purpose — the
	// flaky peer that failed the delete RPC is exactly the one that gets
	// marked dead and later gossips back in with its table intact.
	pendingDel map[string]map[string]bool
	closed     bool

	clientsMu sync.Mutex
	clients   map[string]*clientEntry

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode builds and starts a cluster node. The prober begins gossiping
// immediately; Close stops it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("cluster: empty self node ID")
	}
	if strings.ContainsRune(cfg.Scope, 0) {
		return nil, fmt.Errorf("cluster: scope %q contains NUL", cfg.Scope)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 2 * time.Second
	}
	n := &Node{
		cfg:        cfg,
		table:      NewBlockTable(cfg.TableBytes),
		metrics:    newNodeMetrics(cfg.Obs, cfg.Self.ID),
		members:    make(map[string]Member),
		dead:       make(map[string]bool),
		seen:       make(map[string]bool),
		epochs:     make(map[string]*arrayEpochs),
		pendingDel: make(map[string]map[string]bool),
		clients:    make(map[string]*clientEntry),
		stop:       make(chan struct{}),
	}
	n.members[cfg.Self.ID] = cfg.Self
	for _, p := range cfg.Peers {
		if p.ID == "" || p.ID == cfg.Self.ID {
			continue
		}
		n.members[p.ID] = p
	}
	n.version = 1
	n.rebuildRingLocked()
	n.wg.Add(1)
	go n.probeLoop()
	return n, nil
}

// Close stops the prober, tears down every peer connection, and gives the
// shard table's blocks back to the arena.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	n.clientsMu.Lock()
	entries := n.clients
	n.clients = make(map[string]*clientEntry)
	n.clientsMu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.cl != nil {
			e.cl.Close()
			e.cl = nil
		}
		e.mu.Unlock()
	}
	n.table.Close()
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// rebuildRingLocked recomputes the ring over the live membership and
// refreshes the membership gauges. Caller holds n.mu.
func (n *Node) rebuildRingLocked() {
	ids := make([]string, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	n.ring = NewRing(ids, n.cfg.VNodes)
	n.metrics.members.Set(int64(len(n.members)))
	n.metrics.viewVersion.Set(int64(n.version))
}

// currentRing snapshots the ring pointer; rings are immutable once built.
func (n *Node) currentRing() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// LiveMembers returns the current live membership, sorted by ID — the
// deterministic order doocserve uses to map engine nodes onto peers.
func (n *Node) LiveMembers() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Version returns the current membership view version.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Counters snapshots the node's event counts.
func (n *Node) Counters() Counters {
	m := &n.metrics
	return Counters{
		ForwardedReads:      m.forwardedReads.Value(),
		ForwardedReadMisses: m.forwardedReadMiss.Value(),
		ForwardedBytes:      m.forwardedBytes.Value(),
		Pushes:              m.pushes.Value(),
		PushAcks:            m.pushAcks.Value(),
		PushBytes:           m.pushBytes.Value(),
		PeerDeaths:          m.peerDeaths.Value(),
		LegacyRejections:    m.legacyRejections.Value(),
		ServedGets:          m.servedGets.Value(),
		ServedPuts:          m.servedPuts.Value(),
		ViewExchanges:       m.viewExchanges.Value(),
	}
}

// Status snapshots the node for the /cluster endpoint.
func (n *Node) Status() Status {
	n.mu.Lock()
	version := n.version
	members := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		members = append(members, m)
	}
	deadIDs := make([]string, 0, len(n.dead))
	for id := range n.dead {
		deadIDs = append(deadIDs, id)
	}
	n.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	sort.Strings(deadIDs)
	return Status{
		Self:        n.cfg.Self.ID,
		Addr:        n.cfg.Self.Addr,
		Version:     version,
		Members:     members,
		Dead:        deadIDs,
		TableBlocks: n.table.Len(),
		TableBytes:  n.table.Bytes(),
		Counters:    n.Counters(),
	}
}

// syncStorageGauges refreshes the table residency gauges after a mutation.
func (n *Node) syncStorageGauges() {
	n.metrics.tableBlocks.Set(int64(n.table.Len()))
	n.metrics.tableBytes.Set(n.table.Bytes())
}

// ---- peer client pool ----

// clientEntry is one member's slot in the pool. The per-entry mutex
// serializes dials to that member only, so a slow or unreachable peer
// being dialed (up to RPCTimeout) never stalls other peers' RPCs — the
// pool-wide clientsMu is held just for map lookups.
type clientEntry struct {
	mu sync.Mutex
	cl *remote.Client
}

// client returns a connected, cluster-capable client for a member,
// dialing lazily. A member whose handshake lacks the cluster capability
// (a server started without the peer role) is expelled from membership and
// reported as ErrLegacyPeer.
func (n *Node) client(id string) (*remote.Client, error) {
	n.mu.Lock()
	m, ok := n.members[id]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, ErrNotMember
	}
	n.clientsMu.Lock()
	e, ok := n.clients[id]
	if !ok {
		e = &clientEntry{}
		n.clients[id] = e
	}
	n.clientsMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cl != nil {
		return e.cl, nil
	}
	cl, err := remote.DialOptions(m.Addr, remote.Options{
		Codec:      n.cfg.Codec,
		Timeout:    n.cfg.RPCTimeout,
		MaxRetries: 1,
	})
	if err != nil {
		return nil, err
	}
	if !cl.ClusterCapable() {
		cl.Close()
		n.expelLegacy(id)
		return nil, ErrLegacyPeer
	}
	// The entry may have been dropped while we dialed (peer died, node
	// closed); a dropped entry must not resurrect in the pool.
	n.clientsMu.Lock()
	current := n.clients[id]
	n.clientsMu.Unlock()
	if current != e {
		cl.Close()
		return nil, ErrNotMember
	}
	e.cl = cl
	return cl, nil
}

// dropClient closes and forgets a member's pooled connection. A dial in
// flight for the same member notices the dropped entry and discards its
// own result.
func (n *Node) dropClient(id string) {
	n.clientsMu.Lock()
	e, ok := n.clients[id]
	if ok {
		delete(n.clients, id)
	}
	n.clientsMu.Unlock()
	if !ok {
		return
	}
	e.mu.Lock()
	cl := e.cl
	e.cl = nil
	e.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// markSeen records that a peer answered an RPC, making it eligible for
// death-marking later.
func (n *Node) markSeen(id string) {
	n.mu.Lock()
	n.seen[id] = true
	n.mu.Unlock()
}

// maybeDead marks a peer dead after a transport failure, but only if it
// was seen alive before — errors against a never-contacted peer (still
// starting up) are skipped without prejudice.
func (n *Node) maybeDead(id string) {
	n.mu.Lock()
	if !n.seen[id] {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.markDead(id)
}

// markDead removes a peer from membership, bumps the view version, and
// runs the death path. Idempotent.
func (n *Node) markDead(id string) {
	n.mu.Lock()
	if _, ok := n.members[id]; !ok || id == n.cfg.Self.ID {
		n.mu.Unlock()
		return
	}
	delete(n.members, id)
	n.dead[id] = true
	n.version++
	n.rebuildRingLocked()
	n.mu.Unlock()
	n.died(id)
}

// died is the death path past the membership change, shared by a death this
// node's own probe found (markDead) and one it learned by gossip
// (mergeView): count it, drop the pooled connection, fire OnDeath. Callers
// have already removed id from n.members under n.mu, which is what makes
// the hook fire once per observer — the later of the two finds no member
// to remove. Pending deletes owed by id stay queued: a peer that rejoins
// with its state must still be told.
func (n *Node) died(id string) {
	n.metrics.peerDeaths.Inc()
	n.logf("cluster: peer %s declared dead; view now v%d", id, n.Version())
	n.dropClient(id)
	if cb := n.cfg.OnDeath; cb != nil {
		go cb(id)
	}
}

// expelLegacy removes a peer that cannot speak the cluster protocol.
// Unlike death, this is permanent for the peer's lifetime: it will never
// gossip its way back in, because it cannot gossip at all.
func (n *Node) expelLegacy(id string) {
	n.mu.Lock()
	if _, ok := n.members[id]; !ok {
		n.mu.Unlock()
		return
	}
	delete(n.members, id)
	n.dead[id] = true
	n.version++
	n.rebuildRingLocked()
	// Such a peer never held ring blocks and can never ack, so it owes no
	// deletes.
	for array, owing := range n.pendingDel {
		delete(owing, id)
		if len(owing) == 0 {
			delete(n.pendingDel, array)
		}
	}
	n.mu.Unlock()
	n.metrics.legacyRejections.Inc()
	n.logf("cluster: peer %s rejected: %v", id, ErrLegacyPeer)
}

// ---- membership gossip ----

func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.gossipOnce()
			n.flushDeletes("")
		}
	}
}

// gossipOnce exchanges views with every live remote member. N is small
// (a handful of I/O peers), so all-to-all keeps convergence fast and the
// code free of randomness.
func (n *Node) gossipOnce() {
	for _, m := range n.LiveMembers() {
		if m.ID == n.cfg.Self.ID {
			continue
		}
		cl, err := n.client(m.ID)
		if err != nil {
			n.maybeDead(m.ID)
			continue
		}
		theirs, err := cl.PeerViewExchange(n.wireView())
		if err != nil {
			n.maybeDead(m.ID)
			continue
		}
		n.markSeen(m.ID)
		n.metrics.viewExchanges.Inc()
		n.mergeView(theirs)
	}
}

// wireView snapshots the membership view in wire form, members sorted for
// determinism.
func (n *Node) wireView() remote.PeerView {
	n.mu.Lock()
	v := remote.PeerView{From: n.cfg.Self.ID, Version: n.version}
	v.Members = make([]remote.PeerMember, 0, len(n.members))
	for _, m := range n.members {
		v.Members = append(v.Members, remote.PeerMember{ID: m.ID, Addr: m.Addr})
	}
	n.mu.Unlock()
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	return v
}

// mergeView folds a received view into ours. A strictly newer view is
// adopted wholesale (self is always re-added — a node never removes
// itself from its own view), and every member it drops is declared dead
// here exactly as if this node's own probe had failed; otherwise an unknown
// sender is admitted as a join or rejoin with a version bump, which is how
// a freshly (re)started peer propagates into an established cluster whose
// version has moved on.
func (n *Node) mergeView(v remote.PeerView) {
	n.mu.Lock()
	changed := false
	var removed []string
	if v.Version > n.version {
		nm := make(map[string]Member, len(v.Members)+1)
		for _, m := range v.Members {
			nm[m.ID] = Member{ID: m.ID, Addr: m.Addr}
		}
		version := v.Version
		if _, ok := nm[n.cfg.Self.ID]; !ok {
			nm[n.cfg.Self.ID] = n.cfg.Self
			version++
		}
		// A member the newer view no longer lists died where another peer
		// could see it first; it takes the same death path as markDead.
		for id := range n.members {
			if _, ok := nm[id]; !ok {
				n.dead[id] = true
				removed = append(removed, id)
			}
		}
		n.members = nm
		n.version = version
		for id := range nm {
			delete(n.dead, id) // present in a newer view = alive again
		}
		changed = true
	} else if v.From != "" && v.From != n.cfg.Self.ID {
		if _, ok := n.members[v.From]; !ok {
			for _, m := range v.Members {
				if m.ID == v.From {
					n.members[v.From] = Member{ID: m.ID, Addr: m.Addr}
					delete(n.dead, v.From)
					n.version++
					changed = true
					break
				}
			}
		}
	}
	if v.From != "" && v.From != n.cfg.Self.ID {
		n.seen[v.From] = true
	}
	if changed {
		n.rebuildRingLocked()
	}
	n.mu.Unlock()
	for _, id := range removed {
		n.died(id)
	}
	if changed {
		n.logf("cluster: view now v%d with %d members", n.Version(), len(n.LiveMembers()))
	}
}

// ---- epochs ----

// bumpEpoch assigns the next write epoch for a block: one past anything
// this node ever pushed or observed for it, including pre-delete history
// via the array floor.
func (n *Node) bumpEpoch(array string, block int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	ae, ok := n.epochs[array]
	if !ok {
		ae = &arrayEpochs{blocks: make(map[int]uint64)}
		n.epochs[array] = ae
	}
	e := ae.floor
	if be := ae.blocks[block]; be > e {
		e = be
	}
	e++
	ae.blocks[block] = e
	return e
}

// noteEpoch records an epoch observed from a peer fetch, so later fetches
// of the block refuse an owner copy older than it.
func (n *Node) noteEpoch(array string, block int, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ae, ok := n.epochs[array]
	if !ok {
		ae = &arrayEpochs{blocks: make(map[int]uint64)}
		n.epochs[array] = ae
	}
	if epoch > ae.blocks[block] {
		ae.blocks[block] = epoch
	}
}

// epochOf returns the minimum epoch this node accepts for a block, 0 when
// it has no knowledge (accept any). A block with no post-delete epoch in
// an array that has a floor demands floor+1 — strictly above everything
// the dead incarnation ever pushed — so a reader rejects old-incarnation
// bytes from a peer that missed the delete even before the retried delete
// lands there.
func (n *Node) epochOf(array string, block int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ae, ok := n.epochs[array]; ok {
		if e := ae.blocks[block]; e > 0 {
			return e
		}
		if ae.floor > 0 {
			return ae.floor + 1
		}
	}
	return 0
}

// foldEpochs collapses an array's per-block epochs into the floor on
// delete: the recreated array's pushes start above the old incarnation's
// epochs, and the per-block map stops growing across delete cycles.
func (n *Node) foldEpochs(array string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ae, ok := n.epochs[array]
	if !ok {
		return
	}
	for _, e := range ae.blocks {
		if e > ae.floor {
			ae.floor = e
		}
	}
	ae.blocks = make(map[int]uint64)
}

// ---- shard backend (the storage layer's hooks) ----

// scoped maps a caller-facing array name into the ring namespace. With a
// configured scope, every key this node originates carries a
// "<scope>\x00" prefix, so array names that are only unique per process
// (job-scoped "job1:x_0_0" from each peer's local job counter) never
// collide across peers in the shared ring. The peer verbs stay raw: wire
// names arrive already scoped by their origin.
func (n *Node) scoped(array string) string {
	if n.cfg.Scope == "" {
		return array
	}
	return n.cfg.Scope + "\x00" + array
}

// FetchBlock resolves a block over the ring's owner walk: own table for
// self-owned keys, forwarded PeerGet otherwise. ok=false means no live peer
// holds the block and the caller should fall back to its normal load path.
// The returned bytes are a buffer from storage.SharedArena() that becomes
// the caller's, and the node keeps no copy of a forwarded block.
func (n *Node) FetchBlock(array string, block int) ([]byte, bool) {
	if n.isClosed() {
		return nil, false
	}
	array = n.scoped(array)
	want := n.epochOf(array, block)
	ring := n.currentRing()
	if ring == nil || len(ring.Members()) == 0 {
		return nil, false
	}
	key := BlockKey(array, block)
	for _, id := range ring.Owners(key, fetchCandidates) {
		if id == n.cfg.Self.ID {
			data, epoch, ok := n.table.Get(array, block)
			if ok && (want == 0 || epoch >= want) {
				return data, true
			}
			storage.SharedArena().Put(data)
			continue
		}
		cl, err := n.client(id)
		if err != nil {
			if !errors.Is(err, ErrLegacyPeer) && !errors.Is(err, ErrNotMember) && !errors.Is(err, ErrClosed) {
				n.maybeDead(id)
			}
			continue
		}
		data, epoch, held, err := cl.PeerGet(array, block)
		if err != nil {
			n.maybeDead(id)
			continue
		}
		n.markSeen(id)
		if !held || (want != 0 && epoch < want) {
			storage.SharedArena().Put(data)
			continue
		}
		n.metrics.forwardedReads.Inc()
		n.metrics.forwardedBytes.Add(int64(len(data)))
		n.noteEpoch(array, block, epoch)
		return data, true
	}
	n.metrics.forwardedReadMiss.Inc()
	return nil, false
}

// PushBlock places a written block on its ring owners at a fresh epoch.
// The return value reports durability: true only when DurableCopies
// distinct *remote* peers acknowledged the bytes, in which case the block
// survives any single peer death and the caller may skip its local disk
// spill. Node does not retain data: the shard table copies what it keeps.
// Between owners the walk checks dead (nil: never): once the array is
// deleted, the owners not yet reached get no copy.
func (n *Node) PushBlock(array string, block int, data []byte, dead *atomic.Bool) bool {
	if n.isClosed() {
		return false
	}
	array = n.scoped(array)
	epoch := n.bumpEpoch(array, block)
	ring := n.currentRing()
	if ring == nil || len(ring.Members()) == 0 {
		return false
	}
	n.metrics.pushes.Inc()
	n.metrics.pushBytes.Add(int64(len(data)))
	remoteAcks := 0
	attempted := 0
	// Walk one owner past ReplicateCopies so the self slot does not eat a
	// replica: the target is ReplicateCopies *remote* copies, with the self
	// copy as a bonus read server when self is among the owners.
	for _, id := range ring.Owners(BlockKey(array, block), ReplicateCopies+1) {
		if dead != nil && dead.Load() {
			break
		}
		if id == n.cfg.Self.ID {
			// The self copy serves other peers' forwarded reads but never
			// counts toward durability (it dies with this process), so it
			// is not pinned — LRU pressure may shed it.
			n.table.Put(array, block, epoch, data, false)
			continue
		}
		if attempted >= ReplicateCopies {
			break
		}
		attempted++
		cl, err := n.client(id)
		if err != nil {
			if !errors.Is(err, ErrLegacyPeer) && !errors.Is(err, ErrNotMember) && !errors.Is(err, ErrClosed) {
				n.maybeDead(id)
			}
			continue
		}
		ok, err := cl.PeerPut(array, block, epoch, data, true)
		if err != nil {
			n.maybeDead(id)
			continue
		}
		n.markSeen(id)
		if ok {
			remoteAcks++
			n.metrics.pushAcks.Inc()
		}
	}
	n.syncStorageGauges()
	return remoteAcks >= DurableCopies
}

// InvalidateArray drops every trace of an array: local table entries
// synchronously, remote peers' tables via a delete fan-out that
// is kicked immediately and retried from the probe loop until every live
// member acks. Per-block epochs fold into the array floor so a recreated
// array starts above them; until a straggling peer's ack lands, this
// node's reads demand epochs above the floor (epochOf), so the straggler
// can never serve old-incarnation bytes back to us.
func (n *Node) InvalidateArray(array string) {
	if n.isClosed() {
		return
	}
	array = n.scoped(array)
	n.foldEpochs(array)
	n.table.DeleteArray(array)
	n.syncStorageGauges()
	// Record the members owing an ack, then kick one immediate round. The
	// closed-check and wg.Add are one critical section with Close's setting
	// of closed, so Add can never race the final Wait.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	owing := make(map[string]bool, len(n.members))
	for id := range n.members {
		if id != n.cfg.Self.ID {
			owing[id] = true
		}
	}
	if len(owing) == 0 {
		n.mu.Unlock()
		return
	}
	n.pendingDel[array] = owing
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.flushDeletes(array)
	}()
}

// flushDeletes retries pending deletes against their still-owing live
// members, clearing acked entries: every pending array from the probe loop
// each tick (only == ""), the one array just invalidated from
// InvalidateArray's immediate kick. The kick must not retry the others: with
// p arrays pending, p kicks each retrying all p is p² RPCs, and a delete
// rate that once outruns the acks never recovers. Members that are currently
// dead are skipped but stay owed — if they gossip back in with their
// table intact, the next tick reaches them; a restarted peer acks the
// no-op delete and clears itself.
func (n *Node) flushDeletes(only string) {
	type target struct{ array, id string }
	n.mu.Lock()
	var work []target
	for array, owing := range n.pendingDel {
		if only != "" && array != only {
			continue
		}
		for id := range owing {
			if _, live := n.members[id]; live {
				work = append(work, target{array, id})
			}
		}
	}
	n.mu.Unlock()
	for _, w := range work {
		cl, err := n.client(w.id)
		if err != nil {
			continue
		}
		if err := cl.PeerDelete(w.array); err != nil {
			continue // transport or handler failure: stays owed, retried next tick
		}
		n.markSeen(w.id)
		n.mu.Lock()
		if owing, ok := n.pendingDel[w.array]; ok {
			delete(owing, w.id)
			if len(owing) == 0 {
				delete(n.pendingDel, w.array)
			}
		}
		n.mu.Unlock()
	}
}

// ---- remote.PeerHandler (the server-side verbs) ----

// PeerPut stores a copy of a block pushed by a peer.
func (n *Node) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	if n.isClosed() {
		return false, ErrClosed
	}
	ok := n.table.Put(array, block, epoch, data, durable)
	if ok {
		n.metrics.servedPuts.Inc()
	}
	n.syncStorageGauges()
	return ok, nil
}

// PeerGet serves a copy of a block from the local table; the copy is the
// caller's (remote.PeerHandler).
func (n *Node) PeerGet(array string, block int) ([]byte, uint64, bool, error) {
	if n.isClosed() {
		return nil, 0, false, ErrClosed
	}
	data, epoch, ok := n.table.Get(array, block)
	if !ok {
		return nil, 0, false, nil
	}
	n.metrics.servedGets.Inc()
	return data, epoch, true, nil
}

// PeerDelete drops an array's blocks on behalf of the deleting peer.
func (n *Node) PeerDelete(array string) error {
	if n.isClosed() {
		return ErrClosed
	}
	n.foldEpochs(array)
	n.table.DeleteArray(array)
	n.syncStorageGauges()
	return nil
}

// PeerViewExchange merges the caller's view and returns ours — the
// server half of a gossip round.
func (n *Node) PeerViewExchange(v remote.PeerView) remote.PeerView {
	n.mergeView(v)
	n.metrics.viewExchanges.Inc()
	return n.wireView()
}
