package remote

import (
	"fmt"

	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// opcode identifies a request type: an index into verbs. The values are the
// wire format and never change.
type opcode uint8

const (
	opCreate opcode = iota + 1
	opDelete
	opRead
	opWrite
	opPrefetch
	opFlush
	opInfo
	opEvict
	opStats
	opJobSubmit
	opJobStatus
	opJobCancel
	opJobResult
	opJobList
	opJobHistory
	opPeerPut
	opPeerGet
	opPeerDel
	opPeerView
	opProxyStat
	opProxyAddRef
	opProxyRelease
	opProxyResolve
	opJobProxy
)

// role is a personality a server plays. Every server plays roleStorage; the
// others follow from its ServerOptions (see Server.plays).
type role uint8

const (
	roleStorage role = iota
	roleJobs         // ServerOptions.Jobs is set
	rolePeer         // ServerOptions.Peer is set
	roleProxy        // the job service has a proxy registry
)

// roles names each role in refusals and gives the hello mask bit that
// advertises it. A role without a bit is refused by the server, in band; one
// with a bit is refused by the client before anything is sent, when the
// server's hello lacked the bit.
var roles = [...]struct {
	what string
	bit  uint8
}{
	roleStorage: {what: "storage"},
	roleJobs:    {what: "job service"},
	rolePeer:    {what: "cluster peer role", bit: ClusterCapBit},
	roleProxy:   {what: "proxy registry", bit: ProxyCapBit},
}

// advertisedIn reports whether a hello mask admits the role's verbs.
func (r role) advertisedIn(mask uint8) bool { return mask&roles[r].bit == roles[r].bit }

// verb is one row of the opcode table.
type verb struct {
	name string
	role role
	// serve runs the verb on a server that plays role. A nil response is a
	// bare acknowledgement; an error becomes the response's Err.
	serve func(s *Server, req *request) (*response, error)
}

// verbs is the opcode table, the one place a verb is defined: its name, the
// role a server must play to serve it, and its handler. Each handler runs in
// its own goroutine (see Server.handleConn), so a read parked on an unwritten
// interval or a result wait stalls nothing else.
var verbs = [...]verb{
	opCreate: {"create", roleStorage, func(s *Server, req *request) (*response, error) {
		return nil, s.store.Create(req.Array, req.Size, req.BlockSize)
	}},
	opDelete: {"delete", roleStorage, func(s *Server, req *request) (*response, error) {
		return nil, s.store.Delete(req.Array)
	}},
	opRead: {"read", roleStorage, func(s *Server, req *request) (*response, error) {
		lease, err := s.store.Request(req.Array, req.Lo, req.Hi, storage.PermRead)
		if err != nil {
			return nil, err
		}
		// The frame is written straight from the lease, which is held
		// until then.
		return &response{data: lease.Data, release: lease.Release}, nil
	}},
	opWrite: {"write", roleStorage, func(s *Server, req *request) (*response, error) {
		if int64(len(req.data)) != req.Hi-req.Lo {
			return nil, fmt.Errorf("remote: write payload %d bytes for interval [%d,%d)", len(req.data), req.Lo, req.Hi)
		}
		lease, err := s.store.Request(req.Array, req.Lo, req.Hi, storage.PermWrite)
		if err != nil {
			return nil, err
		}
		copy(lease.Data, req.data)
		lease.Release()
		return nil, nil
	}},
	opPrefetch: {"prefetch", roleStorage, func(s *Server, req *request) (*response, error) {
		s.store.Prefetch(req.Array, req.Lo, req.Hi)
		return nil, nil
	}},
	opFlush: {"flush", roleStorage, func(s *Server, req *request) (*response, error) {
		return nil, s.store.Flush(req.Array)
	}},
	opInfo: {"info", roleStorage, func(s *Server, req *request) (*response, error) {
		info, err := s.store.Info(req.Array)
		return &response{Info: info}, err
	}},
	opEvict: {"evict", roleStorage, func(s *Server, req *request) (*response, error) {
		return nil, s.store.Evict(req.Array, req.Block)
	}},
	opStats: {"stats", roleStorage, func(s *Server, req *request) (*response, error) {
		st := s.store.Stats()
		return &response{Stats: &st}, nil
	}},

	opJobSubmit: {"job-submit", roleJobs, func(s *Server, req *request) (*response, error) {
		j := deref(req.Job)
		sr := jobs.SolveRequest{
			Tenant:       j.Tenant,
			Priority:     j.Priority,
			Iters:        j.Iters,
			Seed:         j.Seed,
			MemoryBytes:  j.MemoryBytes,
			ScratchBytes: j.ScratchBytes,
			Key:          j.Key,
			Trace: obs.SpanContext{
				Trace: obs.TraceIDFromWords(j.TraceHi, j.TraceLo),
				Span:  obs.SpanIDFromWord(j.TraceSpan),
			},
		}
		if j.InputProxy != "" {
			ref, err := proxy.ParseRef(j.InputProxy)
			if err != nil {
				return nil, err
			}
			sr.Input = ref
		}
		st, err := s.opts.Jobs.Submit(sr)
		return &response{Job: &st}, err
	}},
	opJobStatus: {"job-status", roleJobs, func(s *Server, req *request) (*response, error) {
		st, err := s.opts.Jobs.Manager.Status(deref(req.Job).ID)
		return &response{Job: &st}, err
	}},
	opJobCancel: {"job-cancel", roleJobs, func(s *Server, req *request) (*response, error) {
		return nil, s.opts.Jobs.Manager.Cancel(deref(req.Job).ID)
	}},
	opJobResult: {"job-result", roleJobs, func(s *Server, req *request) (*response, error) {
		id := deref(req.Job).ID
		data, err := s.opts.Jobs.Result(id)
		if err != nil {
			return nil, err
		}
		st, _ := s.opts.Jobs.Manager.Status(id)
		return &response{data: data, Job: &st}, nil
	}},
	opJobList: {"job-list", roleJobs, func(s *Server, req *request) (*response, error) {
		return &response{JobList: s.opts.Jobs.Manager.List()}, nil
	}},
	opJobHistory: {"job-history", roleJobs, func(s *Server, req *request) (*response, error) {
		j := deref(req.Job)
		page, total := s.opts.Jobs.Manager.History(j.Offset, j.Limit)
		return &response{JobList: page, JobTotal: total}, nil
	}},

	opPeerPut: {"peer-put", rolePeer, func(s *Server, req *request) (*response, error) {
		ok, err := s.opts.Peer.PeerPut(req.Array, req.Block, req.Epoch, req.data, req.Durable)
		return &response{Held: ok}, err
	}},
	opPeerGet: {"peer-get", rolePeer, func(s *Server, req *request) (*response, error) {
		data, epoch, held, err := s.opts.Peer.PeerGet(req.Array, req.Block)
		if err != nil {
			return nil, err
		}
		resp := &response{data: data, Epoch: epoch, Held: held}
		if data != nil {
			resp.release = func() { storage.SharedArena().Put(data) }
		}
		return resp, nil
	}},
	opPeerDel: {"peer-del", rolePeer, func(s *Server, req *request) (*response, error) {
		return nil, s.opts.Peer.PeerDelete(req.Array)
	}},
	opPeerView: {"peer-view", rolePeer, func(s *Server, req *request) (*response, error) {
		v := s.opts.Peer.PeerViewExchange(deref(req.View))
		return &response{View: &v}, nil
	}},

	opProxyStat: {"proxy-stat", roleProxy, withRef(func(svc *jobs.SolverService, ref proxy.Ref, _ *request) (*response, error) {
		h, refs, err := svc.ProxyStat(ref)
		return &response{Proxy: &h, Refs: refs, Total: h.Length}, err
	})},
	opProxyAddRef: {"proxy-addref", roleProxy, withRef(func(svc *jobs.SolverService, ref proxy.Ref, req *request) (*response, error) {
		h, err := svc.ProxyAddRef(ref, deref(req.Job).Key)
		if err != nil {
			return nil, err
		}
		_, refs, _ := svc.ProxyStat(ref)
		return &response{Proxy: &h, Refs: refs}, nil
	})},
	opProxyRelease: {"proxy-release", roleProxy, withRef(func(svc *jobs.SolverService, ref proxy.Ref, req *request) (*response, error) {
		refs, err := svc.ProxyRelease(ref, deref(req.Job).Key)
		return &response{Refs: refs}, err
	})},
	opProxyResolve: {"proxy-resolve", roleProxy, withRef(func(svc *jobs.SolverService, ref proxy.Ref, req *request) (*response, error) {
		data, total, err := svc.ResolveProxyRange(ref, req.Lo, req.Hi)
		return &response{data: data, Total: total}, err
	})},
	opJobProxy: {"job-proxy", roleProxy, func(s *Server, req *request) (*response, error) {
		id := deref(req.Job).ID
		h, err := s.opts.Jobs.ResultProxy(id)
		if err != nil {
			return nil, err
		}
		st, _ := s.opts.Jobs.Manager.Status(id)
		return &response{Proxy: &h, Job: &st}, nil
	}},
}

// withRef adapts a proxy-object verb, whose handle travels in req.Array
// ("name@epoch[@scope]") and optional owner in the job parameters' Key.
func withRef(f func(svc *jobs.SolverService, ref proxy.Ref, req *request) (*response, error)) func(*Server, *request) (*response, error) {
	return func(s *Server, req *request) (*response, error) {
		ref, err := proxy.ParseRef(req.Array)
		if err != nil {
			return nil, err
		}
		return f(s.opts.Jobs, ref, req)
	}
}

// row returns an opcode's table row, nil for an opcode outside the table.
func (o opcode) row() *verb {
	if int(o) >= len(verbs) || verbs[o].serve == nil {
		return nil
	}
	return &verbs[o]
}

func (o opcode) String() string {
	if v := o.row(); v != nil {
		return v.name
	}
	return fmt.Sprintf("opcode(%d)", uint8(o))
}

// plays reports whether the server plays a role. It decides both what the
// hello advertises (negotiate) and what dispatch serves, so a server cannot
// advertise a verb it refuses.
func (s *Server) plays(r role) bool {
	switch r {
	case roleJobs:
		return s.opts.Jobs != nil
	case rolePeer:
		return s.opts.Peer != nil
	case roleProxy:
		return s.opts.Jobs != nil && s.opts.Jobs.ProxyEnabled()
	}
	return true
}

// dispatch runs one request's row of the opcode table. An opcode outside the
// table and a verb of a role this server does not play are refused in band:
// the connection stays usable.
func (s *Server) dispatch(req *request) *response {
	v := req.Op.row()
	if v == nil {
		return &response{Err: fmt.Sprintf("remote: unknown opcode %v", req.Op)}
	}
	if !s.plays(v.role) {
		return &response{Err: fmt.Sprintf("remote: %s: %s not enabled on this server", req.Op, roles[v.role].what)}
	}
	resp, err := v.serve(s, req)
	if err != nil {
		return &response{Err: err.Error()}
	}
	if resp == nil {
		resp = &response{}
	}
	return resp
}

// refusal is the client's error for a verb whose role the server's hello did
// not advertise; nothing was sent.
func refusal(req *request, r role) error {
	if r == roleProxy {
		return fmt.Errorf("%w (%s %q)", ErrLegacyProxy, req.Op, req.Array)
	}
	return fmt.Errorf("remote: %s: %s not enabled on the server (its hello lacks the capability bit)", req.Op, roles[r].what)
}

// deref reads an optional header field: a nil pointer (gob omits one) reads
// as the zero value.
func deref[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}
