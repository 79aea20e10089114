//go:build doocdebug

package core

import (
	"io"
	"math/rand"
	"testing"

	"dooc/internal/dag"
	"dooc/internal/sparse"
)

// TestMatrixViewDiesWithExecutor: an executor that keeps the matrix it was
// handed finds it poisoned once it has returned — the doocdebug build makes
// the lifetime rule of ExecContext.Matrix checkable, for a V1 block and for a
// V2 block, whose columns are viewed as in-row gaps, alike.
func TestMatrixViewDiesWithExecutor(t *testing.T) {
	t.Run("v1", func(t *testing.T) { testMatrixViewDiesWithExecutor(t, sparse.WriteCRS, false) })
	t.Run("v2", func(t *testing.T) { testMatrixViewDiesWithExecutor(t, sparse.WriteCRS2, true) })
}

func testMatrixViewDiesWithExecutor(t *testing.T, write func(io.Writer, *sparse.CSR) error, v2 bool) {
	m := testMatrix(t, 6)
	x := randVec(rand.New(rand.NewSource(1)), m.Cols)
	sys := viewTestSystem(t, m, x, write)
	if err := sys.Store(0).Create("y", int64(8*m.Rows), int64(8*m.Rows)); err != nil {
		t.Fatal(err)
	}
	var kept *sparse.CSR
	var liveInside bool
	keep := func(ctx *ExecContext) error {
		a, err := ctx.Matrix("M")
		if err != nil {
			return err
		}
		kept, liveInside = a, sparse.ViewValid(a)
		return execMultiply(ctx)
	}
	tasks := []*dag.Task{{
		ID: "mult", Kind: "multiply",
		Inputs:  []dag.Ref{{Array: "M", Block: 0, Bytes: 1}, {Array: "x", Block: 0, Bytes: 1}},
		Outputs: []dag.Ref{{Array: "y", Block: 0, Bytes: 1}},
	}}
	if _, err := sys.Run(RunSpec{Tasks: tasks, Executors: map[string]Executor{"multiply": keep}}); err != nil {
		t.Fatal(err)
	}
	if !liveInside {
		t.Fatal("view reported dead while its executor was running")
	}
	if sparse.ViewValid(kept) {
		t.Fatal("matrix kept past the executor's return still reports valid")
	}
	if kept.Validate() == nil {
		t.Fatal("matrix kept past the executor's return is still multipliable")
	}
	if v2 != (kept.RowFirst != nil) {
		t.Fatalf("v2 = %v, the view carries its columns as gaps = %v", v2, kept.RowFirst != nil)
	}
	for i, c := range kept.RowFirst {
		if c != -1 {
			t.Fatalf("the kept view still opens row %d at column %d", i, c)
		}
	}
	for _, g := range kept.Gap8 {
		if g != 0 {
			t.Fatalf("the kept view still holds gap %d", g)
		}
	}
}
