//go:build doocdebug

package storage

import (
	"math"
	"sync"
	"unsafe"
)

// doocdebug build: view-lifetime enforcement. Every Float64View becomes a
// tracked decoded copy registered against its lease; Release/Abandon fills
// the copy with a poison NaN and forgets it, so a use-after-release bug
// produces loud NaNs (and a false ViewValid) in tests instead of silently
// reading whatever block the arena recycled the buffer into. A released
// copy is reachable only from the slices its holder kept.
// Float64WriteView reports unavailable, forcing executors down the
// scratch+PutFloat64s fallback — which keeps the bit-identity tests
// meaningful for that path too.

// arenaDebugProtect makes a free mapped arena buffer inaccessible until its
// next Get, so a use after Put faults (arena_mmap.go).
const arenaDebugProtect = true

// viewDebugForceCopy routes every view through the tracked-copy path.
const viewDebugForceCopy = true

// viewPoison is a quiet NaN with a recognizable payload.
var viewPoison = math.Float64frombits(0x7FF8_DEAD_DEAD_DEAD)

var viewDebug struct {
	mu sync.Mutex
	// live maps a view's backing-array pointer to the lease it aliases.
	live map[*float64]*Lease
}

func viewKey(v []float64) *float64 {
	if cap(v) == 0 {
		return nil
	}
	return unsafe.SliceData(v)
}

// viewDebugMake builds a tracked decoded copy for the lease.
func viewDebugMake(l *Lease) ([]float64, bool) {
	v := DecodeFloat64s(l.Data)
	if k := viewKey(v); k != nil {
		viewDebug.mu.Lock()
		if viewDebug.live == nil {
			viewDebug.live = make(map[*float64]*Lease)
		}
		viewDebug.live[k] = l
		viewDebug.mu.Unlock()
	}
	return v, true
}

// invalidateViews poisons every view minted from l.
func invalidateViews(l *Lease) {
	viewDebug.mu.Lock()
	defer viewDebug.mu.Unlock()
	for k, owner := range viewDebug.live {
		if owner != l {
			continue
		}
		delete(viewDebug.live, k)
		// Poison the whole copy (its length is the block's) so stale reads
		// scream.
		n := len(l.Data) / 8
		for i, s := 0, unsafe.Slice(k, n); i < n; i++ {
			s[i] = viewPoison
		}
	}
}

// ViewValid reports whether v is still backed by an unreleased lease: a
// released view holds the poison from its first element on. A slice that
// never was a view (or an empty one) is vacuously valid. The lock orders the
// read after any poisoning.
func ViewValid(v []float64) bool {
	if len(v) == 0 {
		return true
	}
	viewDebug.mu.Lock()
	defer viewDebug.mu.Unlock()
	return math.Float64bits(v[0]) != math.Float64bits(viewPoison)
}
