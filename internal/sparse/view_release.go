//go:build !doocdebug

package sparse

// Release-build view hooks: ViewCRSBytes aliases the caller's bytes and the
// end of a view costs nothing. The doocdebug build tag swaps these for a
// private copy that is poisoned when the view ends (view_debug.go).

// viewDebugForceCopy is false in release builds: views alias in place.
const viewDebugForceCopy = false

// ReleaseView ends the view m. A no-op in release builds.
func ReleaseView(*CSR) {}

// ViewValid always reports true in release builds; only the doocdebug build
// can tell a released view from a live one.
func ViewValid(*CSR) bool { return true }
