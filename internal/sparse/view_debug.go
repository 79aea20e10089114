//go:build doocdebug

package sparse

import "math"

// doocdebug build: view-lifetime enforcement, the counterpart of storage's
// float64 views. Every ViewCRSBytes result is a private copy, and
// ReleaseView — which the engine calls where it returns the lease under the
// view — overwrites that copy with poison: a kernel run on a stale view
// indexes out of range at once instead of multiplying whatever block the
// arena recycled the buffer into.

// viewDebugForceCopy routes every view through the poisonable-copy path.
const viewDebugForceCopy = true

// viewPoisonPtr can never open a valid matrix, whose RowPtr[0] is 0.
const viewPoisonPtr = math.MinInt64

// ReleaseView ends the view m: its sections are filled with poison.
func ReleaseView(m *CSR) {
	for i := range m.RowPtr {
		m.RowPtr[i] = viewPoisonPtr
	}
	for i := range m.ColIdx {
		m.ColIdx[i] = -1
	}
	for i := range m.RowFirst {
		m.RowFirst[i] = -1
	}
	for i := range m.Gap8 {
		m.Gap8[i] = 0
	}
	for i := range m.Gap16 {
		m.Gap16[i] = 0
	}
	for i := range m.Val {
		m.Val[i] = math.Float64frombits(0x7FF8_DEAD_DEAD_DEAD)
	}
}

// ViewValid reports whether m has not been through ReleaseView.
func ViewValid(m *CSR) bool {
	return len(m.RowPtr) == 0 || m.RowPtr[0] != viewPoisonPtr
}
