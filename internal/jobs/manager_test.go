package jobs

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dooc/internal/jobstore"
)

// gatedWork returns a Work that blocks until release is closed, plus the
// channels to observe and control it.
func gatedWork(started chan<- int64, release <-chan struct{}) Work {
	return func(id int64, cancel <-chan struct{}) ([]byte, error) {
		if started != nil {
			started <- id
		}
		select {
		case <-release:
			return []byte{byte(id)}, nil
		case <-cancel:
			return nil, errors.New("work: saw cancel")
		}
	}
}

func TestSubmitRunsAndReturnsResult(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	j, err := m.Submit(Request{Tenant: "a"}, func(id int64, _ <-chan struct{}) ([]byte, error) {
		return []byte("hi"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Result(j.ID)
	if err != nil || string(res) != "hi" {
		t.Fatalf("result = %q, %v", res, err)
	}
	st, err := m.Status(j.ID)
	if err != nil || st.State != "done" {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

// TestHistoryBounded: the manager forgets the oldest terminal jobs beyond
// the retention bound, as the store's compaction does on disk, so its
// history stops growing with the jobs it has run. Each result is collected
// and its handle released, as a client that is done with it does: a live
// handle keeps its job remembered (TestLiveHandleKeepsJobInMemory).
func TestHistoryBounded(t *testing.T) {
	m := NewManager(Config{MaxRunning: 2})
	for i := 0; i < 1100; i++ {
		j, err := m.Submit(Request{Tenant: "a"}, func(int64, <-chan struct{}) ([]byte, error) {
			return []byte("ok"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Result(j.ID); err != nil {
			t.Fatal(err)
		}
		h, err := m.ResultProxy(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.cfg.Proxy.Release(h.Ref(), ""); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain()
	if n := len(m.List()); n > jobstore.DefaultRetainHistory {
		t.Fatalf("List holds %d jobs, retention %d", n, jobstore.DefaultRetainHistory)
	}
	if _, err := m.Status(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still known: %v", err)
	}
	page, total := m.History(0, 0)
	if total > jobstore.DefaultRetainHistory || len(page) != total || page[len(page)-1].ID != 1100 {
		t.Fatalf("History total %d, page %d, newest %d", total, len(page), page[len(page)-1].ID)
	}
}

// TestHistoryWindowClamped: every offset and limit, however large, yields
// the window [offset, offset+limit) clipped to the history. A limit near
// math.MaxInt once overflowed offset+limit and panicked in makeslice.
func TestHistoryWindowClamped(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	for i := 0; i < 2; i++ {
		j, err := m.Submit(Request{Tenant: "a"}, func(int64, <-chan struct{}) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Result(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	const total = 2
	for _, offset := range []int{0, 1, total, total + 1} {
		for _, limit := range []int{0, 1, math.MaxInt} {
			page, n := m.History(offset, limit)
			want := max(total-offset, 0)
			if limit > 0 {
				want = min(want, limit)
			}
			if n != total || len(page) != want {
				t.Fatalf("History(%d, %d) = %d jobs of %d, want %d of %d", offset, limit, len(page), n, want, total)
			}
			if want > 0 && page[0].ID != int64(offset+1) {
				t.Fatalf("History(%d, %d) starts at job %d", offset, limit, page[0].ID)
			}
		}
	}
}

func TestQueueFullTyped(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	started := make(chan int64, 1)
	if _, err := m.Submit(Request{Tenant: "a"}, gatedWork(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started // the first job occupies the only run slot
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Request{Tenant: "a"}, gatedWork(nil, release)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := m.Submit(Request{Tenant: "a"}, gatedWork(nil, release))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestMemoryQuotaTyped(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1, MemoryBudget: 100})
	release := make(chan struct{})
	defer close(release)
	started := make(chan int64, 1)
	if _, err := m.Submit(Request{Tenant: "a", MemoryBytes: 60}, gatedWork(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	_, err := m.Submit(Request{Tenant: "b", MemoryBytes: 60}, gatedWork(nil, release))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// A request that fits is admitted.
	if _, err := m.Submit(Request{Tenant: "b", MemoryBytes: 40}, gatedWork(nil, release)); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrderAndTenantFIFO(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 16, AgingStep: time.Hour})
	release := make(chan struct{})
	started := make(chan int64, 16)
	// Occupy the slot so subsequent submissions queue up.
	first, _ := m.Submit(Request{Tenant: "x"}, gatedWork(started, release))
	<-started

	lowEarly, _ := m.Submit(Request{Tenant: "a", Priority: 1}, gatedWork(started, release))
	lowLate, _ := m.Submit(Request{Tenant: "a", Priority: 9}, gatedWork(started, release)) // behind lowEarly in tenant FIFO
	high, _ := m.Submit(Request{Tenant: "b", Priority: 5}, gatedWork(started, release))

	close(release)
	order := []int64{<-started, <-started, <-started}
	// Tenant b's head (priority 5) beats tenant a's head (priority 1,
	// FIFO holds back the 9 behind it).
	want := []int64{high.ID, lowEarly.ID, lowLate.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v (first=%d)", order, want, first.ID)
		}
	}
}

func TestAgingBeatsPriority(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1, AgingStep: time.Millisecond})
	release := make(chan struct{})
	started := make(chan int64, 8)
	_, _ = m.Submit(Request{Tenant: "x"}, gatedWork(started, release))
	<-started

	old, _ := m.Submit(Request{Tenant: "a", Priority: 0}, gatedWork(started, release))
	time.Sleep(50 * time.Millisecond) // ~50 aging points
	fresh, _ := m.Submit(Request{Tenant: "b", Priority: 10}, gatedWork(started, release))

	close(release)
	if got := []int64{<-started, <-started}; got[0] != old.ID || got[1] != fresh.ID {
		t.Fatalf("order = %v, want aged job %d first (fresh=%d)", got, old.ID, fresh.ID)
	}
}

func TestCancelQueued(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	release := make(chan struct{})
	defer close(release)
	started := make(chan int64, 4)
	_, _ = m.Submit(Request{Tenant: "x"}, gatedWork(started, release))
	<-started

	q, _ := m.Submit(Request{Tenant: "a", MemoryBytes: 7}, gatedWork(nil, release))
	if err := m.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Result(q.ID); !errors.Is(err, ErrCancelled) {
		t.Fatalf("result err = %v, want ErrCancelled", err)
	}
	st, _ := m.Status(q.ID)
	if st.State != "cancelled" {
		t.Fatalf("state = %s", st.State)
	}
	queued, _ := m.Counts()
	if queued != 0 {
		t.Fatalf("queued = %d after cancel", queued)
	}
}

func TestCancelRunning(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	started := make(chan int64, 1)
	j, _ := m.Submit(Request{Tenant: "a"}, func(id int64, cancel <-chan struct{}) ([]byte, error) {
		started <- id
		<-cancel
		return nil, errors.New("aborted by cancel")
	})
	<-started
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Result(j.ID); !errors.Is(err, ErrCancelled) {
		t.Fatalf("result err = %v, want ErrCancelled", err)
	}
	if st, _ := m.Status(j.ID); st.State != "cancelled" {
		t.Fatalf("state = %s", st.State)
	}
	// Cancel after finish is a no-op; unknown IDs are typed.
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(999); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestCancelRacesCompletion(t *testing.T) {
	// A job whose work returns success even though cancel was requested
	// stays done — the result is valid.
	m := NewManager(Config{MaxRunning: 1})
	started := make(chan int64, 1)
	proceed := make(chan struct{})
	j, _ := m.Submit(Request{Tenant: "a"}, func(id int64, cancel <-chan struct{}) ([]byte, error) {
		started <- id
		<-proceed
		return []byte("ok"), nil
	})
	<-started
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	res, err := m.Result(j.ID)
	if err != nil || string(res) != "ok" {
		t.Fatalf("result = %q, %v", res, err)
	}
}

func TestDrain(t *testing.T) {
	m := NewManager(Config{MaxRunning: 2})
	release := make(chan struct{})
	started := make(chan int64, 4)
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(Request{Tenant: "a"}, gatedWork(started, release)); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	var wg sync.WaitGroup
	wg.Add(1)
	drained := make(chan struct{})
	go func() {
		defer wg.Done()
		m.Drain()
		close(drained)
	}()
	// Submissions during the drain are rejected with the typed error.
	deadline := time.After(2 * time.Second)
	for {
		_, err := m.Submit(Request{Tenant: "a"}, gatedWork(nil, release))
		if errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("never saw ErrDraining")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-drained:
		t.Fatal("drain returned with jobs still running")
	default:
	}
	close(release)
	wg.Wait()
	if q, r := m.Counts(); q != 0 || r != 0 {
		t.Fatalf("after drain: queued=%d running=%d", q, r)
	}
}

func TestListOrdered(t *testing.T) {
	m := NewManager(Config{MaxRunning: 4})
	for i := 0; i < 5; i++ {
		if _, err := m.Submit(Request{Tenant: "a"}, func(id int64, _ <-chan struct{}) ([]byte, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain()
	ls := m.List()
	if len(ls) != 5 {
		t.Fatalf("%d jobs listed", len(ls))
	}
	for i, st := range ls {
		if st.ID != int64(i+1) {
			t.Fatalf("list not ID-ordered: %v", ls)
		}
		if st.State != "done" {
			t.Fatalf("job %d state %s", st.ID, st.State)
		}
	}
}
