package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// Message tags used by the distributed routines. Bases are spaced so the
// tag+i arithmetic of multi-part transfers cannot collide across kinds.
const (
	tagDiag     = 100 // +0, +1: boundary diagonal blocks
	tagCoupling = 110 // +0: cross-partition coupling, +1: within-partition fill
	tagArrow    = 120 // +0, +1: boundary arrow blocks
	tagTip      = 130
	tagRhs      = 140
	tagSol      = 150
	tagSig      = 160 // +0..+5: scattered Σ boundary blocks
)

// Wire tags of a boundary's blocks, indexed like boundary: towards the
// reduced system after elimination, and back out of its selected inverse.
var (
	elimTags = [6]int{bTop: tagDiag, bBot: tagDiag + 1, bCoupling: tagCoupling, bFill: tagCoupling + 1, bArrTop: tagArrow, bArrBot: tagArrow + 1}
	sigTags  = [6]int{bTop: tagSig, bCoupling: tagSig + 1, bBot: tagSig + 2, bFill: tagSig + 3, bArrTop: tagSig + 4, bArrBot: tagSig + 5}
)

// LocalBTA is one rank's slice of a global matrix on the BTA pattern under
// the time-domain partitioning — the input of PPOBTAF and, holding Σ, the
// output of PPOBTASI: the diagonal, sub-diagonal, and arrow blocks of the
// rank's partition (rank r owns partition r of the global list) plus the
// coupling to the previous rank.
type LocalBTA struct {
	Part    Partition // the rank's partition
	Rank    int
	NGlobal int
	B, A    int

	Diag        []*dense.Matrix // blocks Lo..Hi
	Lower       []*dense.Matrix // couplings (k+1,k) for k = Lo..Hi−1
	TopCoupling *dense.Matrix   // block (Lo, Lo−1); nil on rank 0
	Arrow       []*dense.Matrix // blocks (a, Lo..Hi); empty when A == 0
	// Tip is the arrow tip. As factorization input it is carried by rank 0
	// only (it is globally shared and enters the reduced system exactly
	// once); as Σ it is replicated on every rank.
	Tip *dense.Matrix

	// View is the slice as a matrix of the global shape, sharing its
	// storage: Diag, Lower and Arrow at the slice's global indices,
	// TopCoupling at Lower[Lo−1], the tip on rank 0, every other block nil.
	// A rank assembles its slice in place through it (model.QcInto skips
	// nil blocks). Nil on a PPOBTASI output.
	View *Matrix

	ranks int // partitions (= ranks) of the global list
}

// NewLocalBTA allocates rank's zeroed slice of an (nGlobal, b, a) matrix,
// and its View: rank owns partition parts[rank] of the global partition
// list (e.g. from Partitions). A rank outside the list is an error.
func NewLocalBTA(parts []Partition, rank, nGlobal, b, a int) (*LocalBTA, error) {
	if rank < 0 || rank >= len(parts) {
		return nil, fmt.Errorf("bta: rank %d outside the %d-partition list", rank, len(parts))
	}
	l := &LocalBTA{Part: parts[rank], Rank: rank, NGlobal: nGlobal, B: b, A: a, ranks: len(parts)}
	l.alloc(rank == 0)
	lo, v := l.Part.Lo, &Matrix{N: nGlobal, B: b, A: a, Tip: l.Tip}
	v.Diag = make([]*dense.Matrix, nGlobal)
	v.Lower = make([]*dense.Matrix, nGlobal-1)
	copy(v.Diag[lo:], l.Diag)
	copy(v.Lower[lo:], l.Lower)
	if lo > 0 {
		v.Lower[lo-1] = l.TopCoupling
	}
	if a > 0 {
		v.Arrow = make([]*dense.Matrix, nGlobal)
		copy(v.Arrow[lo:], l.Arrow)
	}
	l.View = v
	return l, nil
}

// alloc allocates the slice's zeroed blocks.
func (l *LocalBTA) alloc(withTip bool) {
	size, b, a := l.Part.Size(), l.B, l.A
	l.Diag = make([]*dense.Matrix, size)
	l.Lower = make([]*dense.Matrix, size-1)
	for i := 0; i < size; i++ {
		l.Diag[i] = dense.New(b, b)
		if i < size-1 {
			l.Lower[i] = dense.New(b, b)
		}
	}
	if l.Part.Lo > 0 {
		l.TopCoupling = dense.New(b, b)
	}
	if a > 0 {
		l.Arrow = make([]*dense.Matrix, size)
		for i := range l.Arrow {
			l.Arrow[i] = dense.New(a, b)
		}
		if withTip {
			l.Tip = dense.New(a, a)
		}
	}
}

// LocalSlice extracts rank's slice from a globally assembled matrix, for
// the tests and the solver experiments that factorize a prepared matrix; a
// distributed evaluation assembles each rank's slice in place through its
// View instead.
func LocalSlice(g *Matrix, parts []Partition, rank int) (*LocalBTA, error) {
	l, err := NewLocalBTA(parts, rank, g.N, g.B, g.A)
	if err != nil {
		return nil, err
	}
	l.FillFrom(g)
	return l, nil
}

// FillFrom refills the slice from a globally assembled matrix without
// allocating. The factorization consumes the slice blocks as workspace, so
// a slice is refilled before every PPOBTAF.
func (l *LocalBTA) FillFrom(g *Matrix) {
	lo, hi := l.Part.Lo, l.Part.Hi
	for k := lo; k <= hi; k++ {
		rel := k - lo
		l.Diag[rel].CopyFrom(g.Diag[k])
		if k < hi {
			l.Lower[rel].CopyFrom(g.Lower[k])
		}
		if g.A > 0 {
			l.Arrow[rel].CopyFrom(g.Arrow[k])
		}
	}
	if lo > 0 {
		l.TopCoupling.CopyFrom(g.Lower[lo-1])
	}
	if g.A > 0 && l.Tip != nil {
		l.Tip.CopyFrom(g.Tip)
	}
}

// whole views a slice that spans every block (the only slice of a
// one-partition topology) as the full matrix.
func (l *LocalBTA) whole() Matrix {
	return Matrix{N: l.NGlobal, B: l.B, A: l.A, Diag: l.Diag, Lower: l.Lower, Arrow: l.Arrow, Tip: l.Tip}
}

// DiagVec returns the diagonal of the owned diagonal blocks — for a Σ slice
// the rank-local marginal variances — Part.Size()·b values.
func (l *LocalBTA) DiagVec() []float64 {
	out := make([]float64, len(l.Diag)*l.B)
	for i, d := range l.Diag {
		for k := 0; k < l.B; k++ {
			out[i*l.B+k] = d.At(k, k)
		}
	}
	return out
}

// DistFactor is one rank's share of the partitioned BTA factorization over a
// communicator: the one partitioned driver over the rank's partition, with
// the reduced system on rank 0. It is persistent — built once for a fixed
// topology, refactorized per θ by PPOBTAF — and serves the distributed
// triangular solve (PPOBTAS), selected inversion (PPOBTASI) and the
// replicated log-determinant. A topology change (a shrunk communicator)
// needs a fresh factor.
type DistFactor struct {
	partFactor
	x     []float64 // PPOBTAS solution storage, [owned blocks; tip]
	sigma *LocalBTA // PPOBTASI output storage, blocks allocated on first use
}

// NewDistFactor allocates the persistent factor state for the topology
// local records (the rank's partition within the global list).
func NewDistFactor(local *LocalBTA) (*DistFactor, error) {
	if local.Rank < 0 || local.Rank >= local.ranks {
		return nil, fmt.Errorf("bta: rank %d outside the %d-partition list of its slice", local.Rank, local.ranks)
	}
	f := &DistFactor{}
	f.init(local.NGlobal, local.B, local.A, local.Part, local.Rank, local.ranks)
	f.x = make([]float64, f.span.Size()*f.B+f.A)
	f.sigma = &LocalBTA{Part: f.span, Rank: local.Rank, NGlobal: local.NGlobal, B: local.B, A: local.A, ranks: local.ranks}
	return f, nil
}

// LogDet returns log|A| of the last successful PPOBTAF (replicated across
// ranks).
func (f *DistFactor) LogDet() float64 { return f.logDet }

// collective guards a collective entry point: the communicator must match
// the factor's topology, and a communication fault mid-protocol (a dead
// peer or a revoked communicator) aborts cleanly — the local phases
// complete inside comm.Compute before any exchange, so no goroutine
// outlives the abort, all storage stays with the factor, and the fault comes
// back as a wrapped error the driver can test with comm.Retryable.
func (f *DistFactor) collective(c *comm.Comm, op string, body func() error) (err error) {
	if c.Rank() != f.rank || c.Size() != f.P {
		return fmt.Errorf("bta: distributed %s: rank %d of %d on a factor built for rank %d of %d",
			op, c.Rank(), c.Size(), f.rank, f.P)
	}
	defer func() {
		if r := recover(); r != nil {
			fe := comm.FaultOf(r)
			if fe == nil {
				panic(r)
			}
			err = fmt.Errorf("bta: distributed %s aborted: %w", op, fe)
		}
	}()
	return body()
}

// PPOBTAF recomputes the distributed BTA Cholesky factorization of the
// matrix whose rank-local slice is local (the Serinv-style nested-dissection
// scheme): every rank eliminates the interiors of its partition
// concurrently, then rank 0 assembles and factorizes the reduced system over
// the 2P−2 boundary blocks of the P ranks. Must be called collectively by
// all ranks of c with consistent slices of f's topology. local is consumed
// (its blocks are the factor's storage until the next call).
func PPOBTAF(c *comm.Comm, f *DistFactor, local *LocalBTA) error {
	if local.Part != f.span || local.NGlobal != f.N || local.B != f.B || local.A != f.A {
		return fmt.Errorf("bta: rank %d: slice %+v of BTA(n=%d,b=%d,a=%d) on a factor over %+v of (n=%d,b=%d,a=%d)",
			f.rank, local.Part, local.NGlobal, local.B, local.A, f.span, f.N, f.B, f.A)
	}
	return f.collective(c, "factorization", func() error { return f.refactorize(c, local) })
}

// PPOBTAS is the distributed triangular solve contributed by the DALIA
// paper (§IV-E): it solves A·x = rhs against the factorization using the
// same nested-dissection scheme as PPOBTAF.
//
// rhsLocal holds the right-hand side for the rank's owned blocks; rhsTip
// holds the arrow-tip right-hand side and is read on rank 0 (a values; may
// be nil when a == 0). The call is collective. It returns the solution over
// the owned blocks and the (replicated) tip solution; both alias the
// factor's storage and stay valid until the next PPOBTAS call.
func PPOBTAS(c *comm.Comm, f *DistFactor, rhsLocal, rhsTip []float64) (x, xTip []float64, err error) {
	nb := f.span.Size() * f.B
	if len(rhsLocal) != nb {
		return nil, nil, fmt.Errorf("bta: rank %d rhs length %d, want %d", f.rank, len(rhsLocal), nb)
	}
	copy(f.x, rhsLocal)
	copy(f.x[nb:], rhsTip)
	err = f.collective(c, "solve", func() error {
		f.solve(c, f.x)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if f.A > 0 {
		xTip = f.x[nb:]
	}
	return f.x[:nb], xTip, nil
}

// PPOBTASI is the distributed selected inversion: it computes every block
// of Σ = A⁻¹ on the BTA pattern, with each rank producing the blocks of its
// partition (TopCoupling holds Σ(Lo, Lo−1) and Tip the replicated Σ over
// the fixed-effects corner). Collective; requires a prior PPOBTAF. The returned slice is the
// factor's own storage and stays valid until the next PPOBTASI call.
func PPOBTASI(c *comm.Comm, f *DistFactor) (*LocalBTA, error) {
	if f.sigma.Diag == nil {
		f.sigma.alloc(true)
	}
	if err := f.collective(c, "selected inversion", func() error { return f.selinv(c, f.sigma) }); err != nil {
		return nil, err
	}
	return f.sigma, nil
}
