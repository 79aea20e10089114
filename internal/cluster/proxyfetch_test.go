package cluster

import (
	"errors"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/proxy"
	"dooc/internal/remote"
)

// TestProxyFetchRefusalKeepsOriginAlive: an origin that answers a resolve in
// band is alive, whatever the refusal. A first fetch of a handle the origin
// does not know marks it seen; once its registry is closed, the next fetch
// is refused with proxy.ErrClosed, and the origin must stay a member rather
// than be suspected dead.
func TestProxyFetchRefusalKeepsOriginAlive(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	reg := proxy.NewRegistry(proxy.Config{Scope: "n1"})
	defer reg.Close()
	svc := jobs.NewSolverService(sys, core.SpMVConfig{Dim: 8, K: 1, Nodes: 1}, jobs.Config{Proxy: reg})
	defer svc.Manager.Drain()
	srv, err := remote.ListenOptions(sys.Store(0), "127.0.0.1:0", remote.ServerOptions{Peer: &lateHandler{}, Jobs: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n, err := NewNode(Config{
		Self:          Member{ID: "n0", Addr: "127.0.0.1:1"},
		Peers:         []Member{{ID: "n1", Addr: srv.Addr()}},
		ProbeInterval: time.Hour,
		RPCTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	if _, err := n.ProxyFetch("n1", "job1", 1); !errors.Is(err, proxy.ErrUnknownProxy) {
		t.Fatalf("fetch of an unknown handle: %v, want proxy.ErrUnknownProxy", err)
	}
	reg.Close()
	_, err = n.ProxyFetch("n1", "job1", 1)
	if !errors.Is(err, proxy.ErrClosed) || !remote.AnsweredInBand(err) {
		t.Fatalf("fetch from a closed registry: %v, want proxy.ErrClosed answered in band", err)
	}
	if members := n.LiveMembers(); len(members) != 2 {
		t.Fatalf("live members after an in-band refusal: %v, want n0 and n1", members)
	}
}
