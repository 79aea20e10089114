package storage

import "sync"

// mailbox is an unbounded MPSC queue. Stores post messages to each other
// from within their actor loops; an unbounded queue guarantees posting never
// blocks, which rules out distributed send-cycle deadlocks by construction.
// (Data-plane backpressure exists at the lease/memory-budget level instead.)
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// items[head:] is the queue. Popping advances head instead of reslicing
	// so the backing array's full capacity is reused once drained — a
	// steady-state mailbox stops allocating entirely.
	items  []any
	head   int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues an item and reports whether it did. Posting to a closed
// mailbox is a no-op: shutdown races (e.g. a late I/O completion) are benign
// for every sender but one that owes somebody an answer.
func (m *mailbox) put(item any) bool {
	m.mu.Lock()
	ok := !m.closed
	if ok {
		m.items = append(m.items, item)
		m.cond.Signal()
	}
	m.mu.Unlock()
	return ok
}

// get dequeues the next item, blocking while empty. ok is false once the
// mailbox is closed and drained.
func (m *mailbox) get() (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.items) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.items) {
		return nil, false
	}
	item := m.items[m.head]
	m.items[m.head] = nil
	m.head++
	if m.head == len(m.items) {
		m.items = m.items[:0]
		m.head = 0
	}
	return item, true
}

// close marks the mailbox closed and wakes the consumer.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
