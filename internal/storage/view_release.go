//go:build !doocdebug

package storage

// Release-build view hooks: views alias lease bytes directly and release
// does no per-view bookkeeping. The doocdebug build tag swaps these for
// tracked copies that are poisoned on release (view_debug.go).

// arenaDebugProtect is false in release builds: a free mapped arena buffer
// keeps its access.
const arenaDebugProtect = false

// viewDebugForceCopy is false in release builds: views alias in place.
const viewDebugForceCopy = false

// viewDebugMake never intercepts view construction in release builds.
func viewDebugMake(*Lease) ([]float64, bool) { return nil, false }

// invalidateViews is a no-op in release builds.
func invalidateViews(*Lease) {}

// ViewValid always reports true in release builds; only the doocdebug build
// tracks view lifetimes.
func ViewValid([]float64) bool { return true }
