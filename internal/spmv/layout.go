package spmv

import (
	"errors"
	"fmt"
)

// Layout says which blocks of the K×K grid are staged. The zero Layout is
// the full grid, every block staged. A mirrored layout is what staging makes
// of a symmetric matrix: the upper triangle of each diagonal block and one
// block of every mirrored pair (u,v)/(v,u), the other being its transpose.
// One task per staged block reads it once and writes the partials of both
// blocks of its pair (DESIGN.md, "Mirrored staging").
type Layout struct {
	k int
	// lower[u*k+v], u < v, says the pair is staged as (v,u); nil for the
	// full grid.
	lower []bool
}

// MirroredLayout is the mirrored layout of a K×K grid, K ≥ 2, in which
// lower(u, v), u < v, tells whether the pair (u,v)/(v,u) is staged as (v,u)
// rather than (u,v).
func MirroredLayout(k int, lower func(u, v int) bool) Layout {
	l := Layout{k: k, lower: make([]bool, k*k)}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			l.lower[u*k+v] = lower(u, v)
		}
	}
	return l
}

// DiscoverLayout reads the layout of a K×K grid off which blocks are staged.
// Every diagonal block must be. A grid holding both blocks of every pair is
// full; one holding one block of every pair is mirrored. A 1×1 grid has no
// pair to tell the two apart and is full — staging never mirrors it. A grid
// with both blocks of some pairs and one of others is full and missing
// blocks.
func DiscoverLayout(k int, staged func(u, v int) bool) (Layout, error) {
	full, half := 0, [2]int{-1, -1} // half: the first pair staged once
	for u := 0; u < k; u++ {
		if !staged(u, u) {
			return Layout{}, fmt.Errorf("spmv: staged set incomplete: missing block (%d,%d)", u, u)
		}
		for v := u + 1; v < k; v++ {
			switch up, down := staged(u, v), staged(v, u); {
			case up && down:
				full++
			case !up && !down:
				return Layout{}, fmt.Errorf("spmv: staged set incomplete: missing block (%d,%d) and its mirror", u, v)
			case half[0] < 0 && up:
				half = [2]int{v, u}
			case half[0] < 0:
				half = [2]int{u, v}
			}
		}
	}
	switch {
	case half[0] < 0:
		return Layout{}, nil
	case full > 0:
		return Layout{}, fmt.Errorf("spmv: staged set incomplete: missing block (%d,%d)", half[0], half[1])
	}
	return MirroredLayout(k, func(u, v int) bool { return !staged(u, v) }), nil
}

// Mirrored reports whether the layout stages half of a symmetric matrix.
func (l Layout) Mirrored() bool { return l.lower != nil }

// Staged reports whether block (u,v) is staged.
func (l Layout) Staged(u, v int) bool {
	switch {
	case l.lower == nil || u == v:
		return true
	case u < v:
		return !l.lower[u*l.k+v]
	}
	return l.lower[v*l.k+u]
}

// ErrMirroredSplit refuses SplitWays > 1 over a mirrored layout: a split
// task computes a range of its block's rows, and the scatter into the
// mirror's partial touches all of them — cutting it by rows would change
// the order every element of that partial is summed in.
var ErrMirroredSplit = errors.New("spmv: a mirrored matrix cannot be split by rows")
