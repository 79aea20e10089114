package storage

import (
	"errors"
	"strings"
)

// This file is the per-group resource-quota layer the job service builds on.
// A quota group is keyed by an array-name prefix (jobs tag their transient
// arrays "job<id>:", so one group per job falls out naturally) and carries
// two ceilings on this node:
//
//   - a memory budget: a soft slice of the node's cache. Allocations never
//     fail, but whenever the group's resident bytes exceed its budget the
//     group's own reclaimable blocks are evicted first, so one job cannot
//     monopolize the shared cache. Evictions are attributed to the group.
//   - a scratch budget: a hard ceiling on durable scratch bytes. A Flush
//     that would exceed it fails up front with ErrScratchQuota instead of
//     writing.
//
// A zero budget means unlimited on that axis. Quotas are per-node (like
// Flush and Evict); callers slicing a job's aggregate budget divide it
// across nodes.

// ErrScratchQuota is returned by Flush when the write would exceed the
// array's quota-group scratch ceiling.
var ErrScratchQuota = errors.New("storage: scratch quota exceeded")

// QuotaStats is a point-in-time snapshot of one quota group on one node.
type QuotaStats struct {
	Prefix        string
	MemBudget     int64
	ScratchBudget int64
	MemUsed       int64 // resident bytes of the group's arrays
	ScratchUsed   int64 // durable scratch bytes attributed to the group
	Evictions     int64 // evictions forced by this group's memory budget
}

// quotaState is the actor-owned record of one group. Only the store loop
// touches it.
type quotaState struct {
	prefix        string
	memBudget     int64
	scratchBudget int64
	scratchUsed   int64
	evictions     int64
}

type cmdSetQuota struct {
	prefix       string
	mem, scratch int64
	ack          chan struct{}
}

type cmdClearQuota struct {
	prefix string
	ack    chan struct{}
}

type quotaResult struct {
	qs QuotaStats
	ok bool
}

type cmdQuotaStats struct {
	prefix string
	reply  chan quotaResult
}

// SetQuota installs or updates the quota group for arrays whose names start
// with prefix. Existing matching arrays join the group immediately and the
// memory budget is enforced at once. Zero budgets mean unlimited.
func (s *Store) SetQuota(prefix string, memBudget, scratchBudget int64) {
	ack := make(chan struct{}, 1)
	s.post(cmdSetQuota{prefix: prefix, mem: memBudget, scratch: scratchBudget, ack: ack})
	<-ack
}

// ClearQuota removes the quota group. Its arrays fall back to the next
// longest matching prefix, or to no quota.
func (s *Store) ClearQuota(prefix string) {
	ack := make(chan struct{}, 1)
	s.post(cmdClearQuota{prefix: prefix, ack: ack})
	<-ack
}

// Quota returns the group's snapshot, and whether the group exists.
func (s *Store) Quota(prefix string) (QuotaStats, bool) {
	reply := make(chan quotaResult, 1)
	s.post(cmdQuotaStats{prefix: prefix, reply: reply})
	r := <-reply
	return r.qs, r.ok
}

// quotaFor resolves the group an array name belongs to: the longest
// matching prefix wins, so "job3:" beats "job" for "job3:x_0_0".
func quotaFor(st *loopState, name string) *quotaState {
	var best *quotaState
	for p, q := range st.quotas {
		if strings.HasPrefix(name, p) && (best == nil || len(p) > len(best.prefix)) {
			best = q
		}
	}
	return best
}

func (s *Store) handleSetQuota(st *loopState, m cmdSetQuota) {
	q, ok := st.quotas[m.prefix]
	if !ok {
		q = &quotaState{prefix: m.prefix}
		st.quotas[m.prefix] = q
	}
	q.memBudget = m.mem
	q.scratchBudget = m.scratch
	// (Re)attach arrays: an existing array joins this group if the new
	// prefix is now its longest match. Scratch bytes follow the array.
	for name, ast := range st.arrays {
		if nq := quotaFor(st, name); nq != ast.quota {
			s.moveArrayQuota(ast, nq)
		}
	}
	s.reclaimQuota(st, q, "", -1)
	m.ack <- struct{}{}
}

func (s *Store) handleClearQuota(st *loopState, m cmdClearQuota) {
	if _, ok := st.quotas[m.prefix]; ok {
		delete(st.quotas, m.prefix)
		for name, ast := range st.arrays {
			if nq := quotaFor(st, name); nq != ast.quota {
				s.moveArrayQuota(ast, nq)
			}
		}
	}
	m.ack <- struct{}{}
}

// moveArrayQuota reassigns an array's group, carrying its scratch
// attribution along.
func (s *Store) moveArrayQuota(ast *arrayState, to *quotaState) {
	if ast.quota != nil {
		ast.quota.scratchUsed -= ast.scratchBytes
	}
	ast.quota = to
	if to != nil {
		to.scratchUsed += ast.scratchBytes
	}
}

func (s *Store) handleQuotaStats(st *loopState, m cmdQuotaStats) {
	q, ok := st.quotas[m.prefix]
	if !ok {
		m.reply <- quotaResult{}
		return
	}
	m.reply <- quotaResult{ok: true, qs: QuotaStats{
		Prefix:        q.prefix,
		MemBudget:     q.memBudget,
		ScratchBudget: q.scratchBudget,
		MemUsed:       groupMemUsed(st, q),
		ScratchUsed:   q.scratchUsed,
		Evictions:     q.evictions,
	}}
}

func groupMemUsed(st *loopState, q *quotaState) int64 {
	var n int64
	for _, ast := range st.arrays {
		if ast.quota != q {
			continue
		}
		for _, b := range ast.blocks {
			n += int64(len(b.buf))
		}
	}
	return n
}

// reclaimQuota enforces one group's memory budget by evicting the group's
// own reclaimable blocks (same safety rules as the global reclaim: unpinned
// and durable or remote-backed somewhere). Quota evictions count in the
// node totals (Evictions) and are additionally attributed to the group.
func (s *Store) reclaimQuota(st *loopState, q *quotaState, protectArray string, protectBlock int) {
	if q == nil || q.memBudget <= 0 {
		return
	}
	used := groupMemUsed(st, q)
	if used <= q.memBudget {
		return
	}
	victims := s.collectVictims(st, protectArray, protectBlock, q)
	for _, v := range victims {
		if used <= q.memBudget {
			return
		}
		used -= int64(len(v.b.buf))
		s.dropBlock(st, v.ast, v.idx, v.b)
		st.stats.Evictions++
		s.metrics.evictions.Inc()
		s.traceEvict(v.name, v.idx)
		st.stats.QuotaEvictions++
		q.evictions++
		s.metrics.quotaEvictions(q.prefix).Inc()
	}
}
