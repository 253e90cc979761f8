package bta

import "github.com/dalia-hpc/dalia/internal/comm"

// ParallelFactor is p DistFactor ranks over Partitions(n, p), refactorized
// together on an in-process communicator. It is kept only for the
// benchmark's bta.parallel2_* rows, which time its Refactorize, and goes with
// the next change to the benchmark.
type ParallelFactor struct {
	locals []*LocalBTA
	ranks  []*DistFactor
}

// NewParallelFactor allocates every rank's slice and factor for the BTA
// shape (n, b, a) over p partitions.
func NewParallelFactor(n, b, a, p int) (*ParallelFactor, error) {
	parts, err := Partitions(n, p)
	if err != nil {
		return nil, err
	}
	f := &ParallelFactor{locals: make([]*LocalBTA, p), ranks: make([]*DistFactor, p)}
	for r := range parts {
		if f.locals[r], err = NewLocalBTA(parts, r, n, b, a); err != nil {
			return nil, err
		}
		if f.ranks[r], err = NewDistFactor(f.locals[r]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Refactorize runs one comm.Run in which every rank refills its slice from
// m and calls PPOBTAF; m is not modified. The error joins the ranks' own.
func (f *ParallelFactor) Refactorize(m *Matrix) error {
	_, err := comm.Run(len(f.ranks), comm.DefaultMachine(), nil, func(c *comm.Comm) error {
		r := c.Rank()
		f.locals[r].FillFrom(m)
		return PPOBTAF(c, f.ranks[r], f.locals[r])
	})
	return err
}

// LogDet returns log|m| of the last successful Refactorize.
func (f *ParallelFactor) LogDet() float64 { return f.ranks[0].LogDet() }
