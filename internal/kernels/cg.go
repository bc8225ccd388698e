package kernels

import "github.com/greenhpc/actor/internal/omp"

// CG performs conjugate-gradient iterations on a sparse symmetric
// positive-definite matrix in CSR form (a 2-D five-point Laplacian plus a
// diagonal shift), mirroring NPB CG's irregular gather-heavy profile.
type CG struct {
	n       int // grid side; matrix is n²×n²
	rowPtr  []int32
	colIdx  []int32
	vals    []float64
	x, r, p []float64
	q       []float64
	rho     float64
}

// NewCG builds the Laplacian system for an n×n grid; iters is unused data
// shape-wise but kept for symmetry with NPB CG's inner iteration count.
func NewCG(n, iters int) *CG {
	_ = iters
	if n < 4 {
		n = 4
	}
	c := &CG{n: n}
	dim := n * n
	c.rowPtr = make([]int32, dim+1)
	// First pass: count entries.
	nnz := 0
	for row := 0; row < dim; row++ {
		i, j := row/n, row%n
		nnz++ // diagonal
		if i > 0 {
			nnz++
		}
		if i < n-1 {
			nnz++
		}
		if j > 0 {
			nnz++
		}
		if j < n-1 {
			nnz++
		}
		c.rowPtr[row+1] = int32(nnz)
	}
	c.colIdx = make([]int32, nnz)
	c.vals = make([]float64, nnz)
	k := 0
	add := func(col int, v float64) {
		c.colIdx[k] = int32(col)
		c.vals[k] = v
		k++
	}
	for row := 0; row < dim; row++ {
		i, j := row/n, row%n
		add(row, 4.5) // diagonal shift keeps the system well conditioned
		if i > 0 {
			add(row-n, -1)
		}
		if i < n-1 {
			add(row+n, -1)
		}
		if j > 0 {
			add(row-1, -1)
		}
		if j < n-1 {
			add(row+1, -1)
		}
	}
	c.x = make([]float64, dim)
	c.r = make([]float64, dim)
	c.p = make([]float64, dim)
	c.q = make([]float64, dim)
	g := lcg(12345)
	for i := range c.r {
		c.r[i] = g.float()
		c.p[i] = c.r[i]
	}
	c.rho = dot(c.r, c.r)
	return c
}

// Name implements Kernel.
func (c *CG) Name() string { return "CG" }

// Step runs one CG iteration: q = A·p, α = ρ/(p·q), x += αp, r −= αq,
// β = ρ'/ρ, p = r + βp.
func (c *CG) Step(t *omp.Team) {
	dim := len(c.x)
	// Sparse matrix-vector product (the spmv phase).
	t.ParallelBlocks(dim, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			var sum float64
			for k := c.rowPtr[row]; k < c.rowPtr[row+1]; k++ {
				sum += c.vals[k] * c.p[c.colIdx[k]]
			}
			c.q[row] = sum
		}
	})
	// p·q reduction (the dot phase).
	pq := t.Reduce(func(tid, nt int) float64 {
		lo, hi := slice(dim, tid, nt)
		var s float64
		for i := lo; i < hi; i++ {
			s += c.p[i] * c.q[i]
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	if pq == 0 {
		return
	}
	alpha := c.rho / pq
	// axpy updates.
	t.ParallelBlocks(dim, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.x[i] += alpha * c.p[i]
			c.r[i] -= alpha * c.q[i]
		}
	})
	// New residual norm.
	rho2 := t.Reduce(func(tid, nt int) float64 {
		lo, hi := slice(dim, tid, nt)
		var s float64
		for i := lo; i < hi; i++ {
			s += c.r[i] * c.r[i]
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	beta := rho2 / c.rho
	c.rho = rho2
	t.ParallelBlocks(dim, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.p[i] = c.r[i] + beta*c.p[i]
		}
	})
}

// Checksum returns Σx, pinned by tests.
func (c *CG) Checksum() float64 {
	var s float64
	for _, v := range c.x {
		s += v
	}
	return s
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// slice returns thread tid's static share [lo, hi) of n items over nt
// threads.
func slice(n, tid, nt int) (int, int) {
	chunk := (n + nt - 1) / nt
	lo := tid * chunk
	hi := lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
