//go:build doocdebug

package sparse

import (
	"math"
	"testing"
)

// TestReleasedViewIsPoisoned: under doocdebug a view is a private copy, and
// ending it leaves nothing a kernel could multiply with.
func TestReleasedViewIsPoisoned(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 2, 3, 4})
	t.Run("v1", func(t *testing.T) { testReleasedViewIsPoisoned(t, encodeCRS(t, m, false)) })
	t.Run("v2 delta32", func(t *testing.T) { testReleasedViewIsPoisoned(t, encodeCRS2Form(t, m, 0)) })
	t.Run("v2 gap8", func(t *testing.T) { testReleasedViewIsPoisoned(t, encodeCRS2Form(t, m, 1)) })
	t.Run("v2 gap16", func(t *testing.T) { testReleasedViewIsPoisoned(t, encodeCRS2Form(t, m, 2)) })
}

func testReleasedViewIsPoisoned(t *testing.T, enc []byte) {
	data := atOffset(enc, 0)
	var s ViewScratch
	m, _, err := ViewCRSBytes(data, &s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if within(m.RowPtr, data) || within(m.ColIdx, data) || within(m.Val, data) ||
		within(m.RowFirst, data) || within(m.Gap8, data) || within(m.Gap16, data) {
		t.Fatal("doocdebug view aliases the block")
	}
	if m.gapForm() != (colForm(enc) != 0) {
		t.Fatal("doocdebug view does not keep the form of the column section")
	}
	if !ViewValid(m) {
		t.Fatal("live view reported invalid")
	}
	again, _, err := ViewCRSBytes(data, &s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseView(m)
	if ViewValid(m) {
		t.Fatal("released view reported valid")
	}
	if m.Validate() == nil {
		t.Fatal("released view still passes Validate")
	}
	for _, v := range m.Val {
		if !math.IsNaN(v) {
			t.Fatalf("released view still holds value %v", v)
		}
	}
	for _, c := range m.RowFirst {
		if c != -1 {
			t.Fatalf("released view still opens a row at column %d", c)
		}
	}
	for i := range m.Gap8 {
		if m.Gap8[i] != 0 {
			t.Fatalf("released view still holds gap %d", m.Gap8[i])
		}
	}
	for i := range m.Gap16 {
		if m.Gap16[i] != 0 {
			t.Fatalf("released view still holds gap %d", m.Gap16[i])
		}
	}
	// Views do not share backing: the second one survives the first's end.
	if !ViewValid(again) || again.Validate() != nil {
		t.Fatal("releasing one view damaged another")
	}
}
