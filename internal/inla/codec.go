package inla

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// Stable binary (de)serialization of fit results and optimizer checkpoints.
//
// The encoding is the durability contract of the persistence layer
// (internal/store): a fitted model's θ mode, BFGS state and latent posterior
// written by one process must decode bit-for-bit in a later one, so every
// float64 is stored as its IEEE-754 bit pattern (little-endian) — no textual
// round-tripping — and the format carries an explicit version byte so later
// PRs can evolve it without corrupting old checkpoints.

// resultCodecVersion is the current Result wire-format version.
const resultCodecVersion = 1

// optCheckpointVersion is the current OptCheckpoint wire-format version.
const optCheckpointVersion = 1

// Result section-presence flags.
const (
	resHasThetaSD = 1 << iota
	resHasThetaCov
	resHasOpt
	resHasIntegrated
)

// MarshalResult encodes a fit result into the stable binary format. Every
// field of Result round-trips, including the BFGS OptResult (so a restored
// model keeps its optimization provenance) and the optional grid-integrated
// posterior.
func MarshalResult(r *Result) []byte {
	var flags byte
	if r.ThetaSD != nil {
		flags |= resHasThetaSD
	}
	if r.ThetaCov != nil {
		flags |= resHasThetaCov
	}
	if r.Opt != nil {
		flags |= resHasOpt
	}
	if r.Integrated != nil {
		flags |= resHasIntegrated
	}
	buf := []byte{resultCodecVersion, flags}
	buf = appendVec(buf, r.Theta)
	if r.ThetaSD != nil {
		buf = appendVec(buf, r.ThetaSD)
	}
	if r.ThetaCov != nil {
		buf = appendMat(buf, r.ThetaCov)
	}
	if r.Opt != nil {
		buf = appendVec(buf, r.Opt.Theta)
		buf = appendF64(buf, r.Opt.F)
		buf = binary.AppendUvarint(buf, uint64(r.Opt.Iterations))
		buf = binary.AppendUvarint(buf, uint64(r.Opt.FEvals))
		buf = appendVec(buf, r.Opt.Trace)
		buf = appendBool(buf, r.Opt.Converged)
	}
	buf = appendVec(buf, r.Mu)
	buf = appendVec(buf, r.LatentVar)
	if r.Integrated != nil {
		ip := r.Integrated
		buf = binary.AppendUvarint(buf, uint64(len(ip.Points)))
		for _, p := range ip.Points {
			buf = appendVec(buf, p)
		}
		buf = appendVec(buf, ip.Weights)
		buf = appendVec(buf, ip.Mu)
		buf = appendVec(buf, ip.Var)
	}
	return buf
}

// UnmarshalResult decodes a result encoded by MarshalResult, failing on a
// version it does not understand or on truncated/garbled input.
func UnmarshalResult(data []byte) (*Result, error) {
	d := &decoder{buf: data}
	if v := d.u8(); v != resultCodecVersion {
		if d.err != nil {
			return nil, fmt.Errorf("inla: result decode: %w", d.err)
		}
		return nil, fmt.Errorf("inla: result codec version %d, this build reads %d", v, resultCodecVersion)
	}
	flags := d.u8()
	r := &Result{}
	r.Theta = d.vec()
	if flags&resHasThetaSD != 0 {
		r.ThetaSD = d.vec()
	}
	if flags&resHasThetaCov != 0 {
		r.ThetaCov = d.mat()
	}
	if flags&resHasOpt != 0 {
		opt := &OptResult{}
		opt.Theta = d.vec()
		opt.F = d.f64()
		opt.Iterations = d.count()
		opt.FEvals = d.count()
		opt.Trace = d.vec()
		opt.Converged = d.bool()
		r.Opt = opt
	}
	r.Mu = d.vec()
	r.LatentVar = d.vec()
	if flags&resHasIntegrated != 0 {
		ip := &IntegratedPosterior{}
		n := d.count()
		if d.err == nil && n > d.remaining() {
			d.err = fmt.Errorf("point count %d exceeds remaining input", n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			ip.Points = append(ip.Points, d.vec())
		}
		ip.Weights = d.vec()
		ip.Mu = d.vec()
		ip.Var = d.vec()
		r.Integrated = ip
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("inla: result decode: %w", err)
	}
	return r, nil
}

// OptCheckpoint freezes the complete state of a BFGS mode search at an
// iteration boundary: the current iterate and gradient, the objective value,
// the inverse-Hessian approximation, and the evaluation bookkeeping. A
// search resumed from a checkpoint continues exactly where the interrupted
// one stopped — the continuation evaluates the same points an uninterrupted
// run would have, so the resumed mode matches the uninterrupted mode.
type OptCheckpoint struct {
	Theta []float64     // current iterate
	Grad  []float64     // gradient at Theta
	F     float64       // objective at Theta
	HInv  *dense.Matrix // inverse BFGS Hessian approximation
	// Iter is the number of completed iterations; a resumed search
	// continues at iteration Iter.
	Iter   int
	FEvals int
	Trace  []float64 // objective per completed iteration (center values)
}

// clone deep-copies the checkpoint so callers may retain it across further
// optimizer iterations that reuse the underlying buffers.
func (ck *OptCheckpoint) clone() *OptCheckpoint {
	c := &OptCheckpoint{
		Theta:  append([]float64(nil), ck.Theta...),
		Grad:   append([]float64(nil), ck.Grad...),
		F:      ck.F,
		Iter:   ck.Iter,
		FEvals: ck.FEvals,
		Trace:  append([]float64(nil), ck.Trace...),
	}
	if ck.HInv != nil {
		c.HInv = ck.HInv.Clone()
	}
	return c
}

// MarshalOptCheckpoint encodes an optimizer checkpoint into the stable
// binary format (the payload of the per-fit write-ahead state the store
// keeps for in-flight fits).
func MarshalOptCheckpoint(ck *OptCheckpoint) []byte {
	buf := []byte{optCheckpointVersion}
	buf = appendVec(buf, ck.Theta)
	buf = appendVec(buf, ck.Grad)
	buf = appendF64(buf, ck.F)
	buf = appendMat(buf, ck.HInv)
	buf = binary.AppendUvarint(buf, uint64(ck.Iter))
	buf = binary.AppendUvarint(buf, uint64(ck.FEvals))
	buf = appendVec(buf, ck.Trace)
	return buf
}

// UnmarshalOptCheckpoint decodes a checkpoint written by
// MarshalOptCheckpoint.
func UnmarshalOptCheckpoint(data []byte) (*OptCheckpoint, error) {
	d := &decoder{buf: data}
	if v := d.u8(); v != optCheckpointVersion {
		if d.err != nil {
			return nil, fmt.Errorf("inla: checkpoint decode: %w", d.err)
		}
		return nil, fmt.Errorf("inla: checkpoint codec version %d, this build reads %d", v, optCheckpointVersion)
	}
	ck := &OptCheckpoint{}
	ck.Theta = d.vec()
	ck.Grad = d.vec()
	ck.F = d.f64()
	ck.HInv = d.mat()
	ck.Iter = d.count()
	ck.FEvals = d.count()
	ck.Trace = d.vec()
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("inla: checkpoint decode: %w", err)
	}
	return ck, nil
}

// --- primitive append/decode helpers ---

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendVec writes a length-prefixed float64 slice (bit-exact).
func appendVec(buf []byte, v []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = appendF64(buf, x)
	}
	return buf
}

// appendMat writes a dense matrix as rows, cols and row-major data; views
// with a wider stride are compacted on the way out.
func appendMat(buf []byte, m *dense.Matrix) []byte {
	if m == nil {
		return binary.AppendUvarint(binary.AppendUvarint(buf, 0), 0)
	}
	buf = binary.AppendUvarint(buf, uint64(m.Rows))
	buf = binary.AppendUvarint(buf, uint64(m.Cols))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			buf = appendF64(buf, m.At(i, j))
		}
	}
	return buf
}

// decoder reads the primitives back, latching the first error so callers can
// chain reads and check once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float at byte %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// count reads a uvarint and range-checks it as a non-negative int.
func (d *decoder) count() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	if v > uint64(math.MaxInt32) {
		d.fail("implausible count %d at byte %d", v, d.off)
		return 0
	}
	return int(v)
}

func (d *decoder) vec() []float64 {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if n > d.remaining()/8 {
		d.fail("vector of %d floats exceeds remaining %d bytes", n, d.remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *decoder) mat() *dense.Matrix {
	r := d.count()
	c := d.count()
	if d.err != nil {
		return nil
	}
	if r == 0 || c == 0 {
		if r != c {
			d.fail("matrix %dx%d has an empty dimension", r, c)
		}
		return nil
	}
	// Bound by division: 8·r·c overflows for dimensions near 2³¹.
	if r > d.remaining()/8/c {
		d.fail("matrix %dx%d exceeds remaining %d bytes", r, c, d.remaining())
		return nil
	}
	m := dense.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, d.f64())
		}
	}
	return m
}

// finish reports the latched error, or trailing garbage after a clean parse.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}
