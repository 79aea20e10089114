//go:build doocdebug

package sparse

import (
	"math"
	"testing"
)

// TestReleasedViewIsPoisoned: under doocdebug a view is a private copy, and
// ending it leaves nothing a kernel could multiply with.
func TestReleasedViewIsPoisoned(t *testing.T) {
	t.Run("v1", func(t *testing.T) { testReleasedViewIsPoisoned(t, false) })
	t.Run("v2", func(t *testing.T) { testReleasedViewIsPoisoned(t, true) })
}

func testReleasedViewIsPoisoned(t *testing.T, v2 bool) {
	data := atOffset(encodeCRS(t, FromDense(2, 2, []float64{1, 2, 3, 4}), v2), 0)
	var s ViewScratch
	m, _, err := ViewCRSBytes(data, &s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if within(m.RowPtr, data) || within(m.ColIdx, data) || within(m.Val, data) {
		t.Fatal("doocdebug view aliases the block")
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
	// Views do not share backing: the second one survives the first's end.
	if !ViewValid(again) || again.Validate() != nil {
		t.Fatal("releasing one view damaged another")
	}
}
