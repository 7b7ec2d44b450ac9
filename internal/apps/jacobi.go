package apps

import (
	"math"

	"repro/internal/nanos"
	"repro/internal/redist"
)

// JacobiChunk is a rank's share of the Jacobi solve: a block of matrix
// rows plus the matching pieces of the iterate and right-hand side
// (§VII-B3: "a flat matrix, but only two vectors").
type JacobiChunk struct {
	Lo, N int
	Rows  []float64
	X     []float64
	B     []float64
	Wire  int64
}

// jacMatrix returns entry (i, j) of the synthetic strictly diagonally
// dominant system, guaranteeing Jacobi convergence.
func jacMatrix(i, j int) float64 {
	if i == j {
		return 4
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if d > 2 {
		return 0
	}
	return -0.5 / float64(d)
}

// jacRHS returns entry i of the right-hand side.
func jacRHS(i int) float64 { return math.Sin(float64(i)) + 2 }

// Jacobi is the Jacobi iterative solver application (§VII-B3), an
// embarrassingly parallel method with the same program layout as CG.
type Jacobi struct{}

// Name implements App.
func (*Jacobi) Name() string { return "Jacobi" }

// Init implements App.
func (*Jacobi) Init(w *nanos.Worker, cfg Config) Chunk {
	n := cfg.ProblemN
	p, r := w.R.Size(), w.R.Rank()
	lo, hi := redist.Offset(n, p, r), redist.Offset(n, p, r+1)
	nloc := hi - lo
	c := &JacobiChunk{Lo: lo, N: n,
		Rows: make([]float64, nloc*n),
		X:    make([]float64, nloc),
		B:    make([]float64, nloc),
	}
	for i := 0; i < nloc; i++ {
		for j := 0; j < n; j++ {
			c.Rows[i*n+j] = jacMatrix(lo+i, j)
		}
		c.B[i] = jacRHS(lo + i)
	}
	if n > 0 {
		c.Wire = cfg.DataBytes * int64(nloc) / int64(n)
	}
	return c
}

// Step implements App: one Jacobi sweep. The full iterate is
// allgathered; each rank updates its block.
func (*Jacobi) Step(w *nanos.Worker, cfg Config, s Chunk, t int) {
	c := s.(*JacobiChunk)
	xFull := w.R.AllgatherFloats(c.X)
	for i := range c.X {
		gi := c.Lo + i
		row := c.Rows[i*c.N : (i+1)*c.N]
		sum := c.B[i]
		for j, xv := range xFull {
			if j != gi {
				sum -= row[j] * xv
			}
		}
		c.X[i] = sum / row[gi]
	}
}

// Split implements Chunk.
func (c *JacobiChunk) Split(parts int) []Chunk {
	nloc := len(c.X)
	out := make([]Chunk, parts)
	for k := 0; k < parts; k++ {
		lo, hi := redist.Offset(nloc, parts, k), redist.Offset(nloc, parts, k+1)
		sub := &JacobiChunk{Lo: c.Lo + lo, N: c.N,
			Rows: append([]float64(nil), c.Rows[lo*c.N:hi*c.N]...),
			X:    append([]float64(nil), c.X[lo:hi]...),
			B:    append([]float64(nil), c.B[lo:hi]...),
		}
		if nloc > 0 {
			sub.Wire = c.Wire * int64(hi-lo) / int64(nloc)
		}
		out[k] = sub
	}
	return out
}

// Append implements Chunk.
func (c *JacobiChunk) Append(tail ...Chunk) Chunk {
	out := &JacobiChunk{Lo: c.Lo, N: c.N, Wire: c.Wire,
		Rows: append([]float64(nil), c.Rows...),
		X:    append([]float64(nil), c.X...),
		B:    append([]float64(nil), c.B...),
	}
	for _, t := range tail {
		tc := t.(*JacobiChunk)
		out.Rows = append(out.Rows, tc.Rows...)
		out.X = append(out.X, tc.X...)
		out.B = append(out.B, tc.B...)
		out.Wire += tc.Wire
	}
	return out
}

// WireBytes implements Chunk.
func (c *JacobiChunk) WireBytes() int64 { return c.Wire }

// CloneData implements mpi.Cloner.
func (c *JacobiChunk) CloneData() any {
	out := *c
	out.Rows = append([]float64(nil), c.Rows...)
	out.X = append([]float64(nil), c.X...)
	out.B = append([]float64(nil), c.B...)
	return &out
}
