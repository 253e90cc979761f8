package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/store"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// Persistence integration: every successful fit or refit is checkpointed to
// the durable store (asynchronously — the publish path never waits on
// fsync), in-flight fits checkpoint their optimizer state so a kill resumes
// from the last BFGS iterate, and startup recovery rebuilds the registry
// from the store without re-running a single mode search.
//
// A recovered model serves bitwise-identical predictions to the pre-crash
// process: the checkpoint carries the fit recipe (the seeded synthetic
// dataset is regenerated deterministically) plus the serialized inla.Result
// with the exact float64 bits of the latent mean, and the snapshot's
// factorization and selected inversion from those inputs are the
// sequential, deterministic routine the fit itself ran for the Σ its
// snapshot froze.

// specRecord is the JSON spec stored alongside each checkpoint payload:
// everything needed to rebuild the servedModel shell and regenerate the
// dataset. Gen is the *resolved* generation config (a reseeded refit
// changes it without touching Req).
type specRecord struct {
	Req        FitRequest      `json:"req"`
	Gen        synth.GenConfig `json:"gen"`
	SpecID     string          `json:"spec_id,omitempty"`
	FitSeconds float64         `json:"fit_seconds"`
	CreatedAt  time.Time       `json:"created_at"`
}

// buildCheckpoint freezes a fit outcome into a durable store record.
func buildCheckpoint(name string, createdAt time.Time, out *fitOutcome) (*store.Checkpoint, error) {
	spec, err := json.Marshal(specRecord{
		Req: out.req, Gen: out.gen, SpecID: out.specID,
		FitSeconds: out.meta.fitSeconds, CreatedAt: createdAt,
	})
	if err != nil {
		return nil, err
	}
	return &store.Checkpoint{
		Name:    name,
		Spec:    spec,
		Payload: inla.MarshalResult(out.res),
	}, nil
}

// flushEntry is one line of the drain-time flush summary.
type flushEntry struct {
	name string
	gen  uint64
	err  error
}

func (e flushEntry) String() string {
	if e.err != nil {
		return fmt.Sprintf("model %s: flush FAILED: %v", e.name, e.err)
	}
	return fmt.Sprintf("model %s: checkpoint flushed (generation %d)", e.name, e.gen)
}

// persister is the async checkpoint writer: publishes queue here and a
// single worker drains them to the store, so the HTTP fit/refit paths
// return as soon as the snapshot is swapped instead of waiting on fsync.
// Ordering per model is preserved (the queue is FIFO and a newer checkpoint
// for the same model replaces a still-queued older one).
type persister struct {
	st   *store.Store
	logf func(string, ...any)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*store.Checkpoint
	closed bool
	done   chan struct{}

	onResult func(flushEntry)
}

func newPersister(st *store.Store, logf func(string, ...any), onResult func(flushEntry)) *persister {
	p := &persister{st: st, logf: logf, done: make(chan struct{}), onResult: onResult}
	p.cond = sync.NewCond(&p.mu)
	go p.run()
	return p
}

// enqueue schedules a checkpoint for durable publish. A checkpoint still
// queued for the same model is superseded (only the newest fit matters).
// After close, the publish happens synchronously so nothing is dropped.
func (p *persister) enqueue(ck *store.Checkpoint) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.publish(ck)
		return
	}
	for i, q := range p.queue {
		if q.Name == ck.Name {
			p.queue[i] = ck
			p.mu.Unlock()
			return
		}
	}
	p.queue = append(p.queue, ck)
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *persister) publish(ck *store.Checkpoint) {
	gen, err := p.st.Publish(ck)
	if err == nil {
		// The durable generation supersedes any in-flight optimizer state.
		if cerr := p.st.ClearFitState(ck.Name); cerr != nil && p.logf != nil {
			p.logf("store: clear fit state %s: %v", ck.Name, cerr)
		}
	}
	if p.onResult != nil {
		p.onResult(flushEntry{name: ck.Name, gen: gen, err: err})
	}
}

func (p *persister) run() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		ck := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.publish(ck)
	}
}

// close drains the queue and stops the worker; pending reports how many
// checkpoints were still queued when the drain began. Bounded by ctx: on
// expiry the worker keeps flushing in the background but close returns.
func (p *persister) close(ctx context.Context) (pending int, err error) {
	p.mu.Lock()
	pending = len(p.queue)
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	select {
	case <-p.done:
		return pending, nil
	case <-ctx.Done():
		return pending, ctx.Err()
	}
}

// remaining lists the models whose checkpoints are still queued, so a
// timed-out drain can name exactly what it dropped.
func (p *persister) remaining() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.queue))
	for i, ck := range p.queue {
		names[i] = ck.Name
	}
	return names
}

// recoverFromStore rebuilds the registry from the durable store: every
// model with a valid current generation is reconstructed without
// re-optimizing, and interrupted fits found in the fit-state area are
// resumed from their last BFGS iterate. Called from New before the server
// accepts traffic.
func (s *Server) recoverFromStore() {
	st := s.opts.Store
	for _, name := range st.Models() {
		ck, err := st.Load(name)
		if err != nil {
			s.recoveryFailures.Add(1)
			s.logf("store: recover %s: %v", name, err)
			continue
		}
		if err := s.recoverModel(ck); err != nil {
			s.recoveryFailures.Add(1)
			s.logf("store: recover %s: %v", name, err)
			continue
		}
		s.recoveredModels.Add(1)
		s.logf("store: recovered model %s (generation %d) without refit", name, ck.Generation)
	}

	states, err := st.FitStates()
	if err != nil {
		s.recoveryFailures.Add(1)
		s.logf("store: list fit states: %v", err)
		return
	}
	for _, fs := range states {
		if err := s.resumeFit(fs); err != nil {
			s.recoveryFailures.Add(1)
			s.logf("store: resume fit %s: %v", fs.Name, err)
			continue
		}
		s.resumedFits.Add(1)
	}
}

// recoverModel reconstructs one served model from its durable checkpoint:
// regenerate the seeded dataset (deterministic), decode the persisted fit
// result (bit-exact latent mean and θ), and refreeze the prediction
// snapshot — no mode search, no posterior extraction.
func (s *Server) recoverModel(ck *store.Checkpoint) error {
	var rec specRecord
	if err := json.Unmarshal(ck.Spec, &rec); err != nil {
		return fmt.Errorf("spec decode: %w", err)
	}
	res, err := inla.UnmarshalResult(ck.Payload)
	if err != nil {
		return fmt.Errorf("result decode: %w", err)
	}
	ds, err := synth.Generate(rec.Gen)
	if err != nil {
		return fmt.Errorf("dataset regeneration: %w", err)
	}
	popts := []predict.Option{}
	if rec.Req.IncludeNoise {
		popts = append(popts, predict.WithObservationNoise())
	}
	if rec.Req.MaxBatch > 0 {
		popts = append(popts, predict.WithMaxBatch(rec.Req.MaxBatch))
	}
	snap, err := predict.NewSnapshot(ds.Model, res, popts...)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	width, height := rec.Gen.Width, rec.Gen.Height
	if width == 0 {
		width = 400
	}
	if height == 0 {
		height = 300
	}
	createdAt := rec.CreatedAt
	if createdAt.IsZero() {
		createdAt = time.Unix(0, ck.CreatedUnixNano)
	}
	handle := predict.NewHandle(snap)
	m := &servedModel{
		name:      ck.Name,
		spec:      rec.SpecID,
		req:       rec.Req,
		gen:       rec.Gen,
		dims:      ds.Model.Dims,
		width:     width,
		height:    height,
		createdAt: createdAt,
		handle:    handle,
		batcher:   newBatcher(handle, s.opts),
	}
	m.meta.Store(&fitMeta{
		theta:      append([]float64(nil), res.Theta...),
		fitSeconds: rec.FitSeconds,
	})
	// Registered directly (not through Register): recovery is not a fit, so
	// the fits counter stays untouched — /stats proves no BFGS re-ran.
	if !s.reg.put(m) {
		m.batcher.shutdown(nil)
		return fmt.Errorf("model %q already registered", ck.Name)
	}
	return nil
}

// resumeFit continues an interrupted fit from its persisted optimizer
// checkpoint: the mode search restarts at the last completed BFGS iterate
// (not θ₀) and, once finished, the model is published exactly as an
// uninterrupted fit would have been. If the model already serves an older
// generation (an interrupted refit), the finished fit swaps in as a refit.
func (s *Server) resumeFit(fs *store.Checkpoint) error {
	var rec specRecord
	if err := json.Unmarshal(fs.Spec, &rec); err != nil {
		return fmt.Errorf("fit-state spec decode: %w", err)
	}
	resume, err := inla.UnmarshalOptCheckpoint(fs.Payload)
	if err != nil {
		return fmt.Errorf("fit-state decode: %w", err)
	}
	s.logf("store: resuming interrupted fit %s from BFGS iteration %d", fs.Name, resume.Iter)
	out, err := s.fitResolved(rec.Req, rec.Gen, rec.SpecID, resume)
	if err != nil {
		return err
	}
	if existing, ok := s.reg.get(fs.Name); ok {
		existing.meta.Store(out.meta)
		existing.handle.Swap(out.snap)
		existing.gen = out.gen
		existing.refits.Add(1)
		s.refits.Add(1)
		s.persistModel(existing, out)
		return nil
	}
	m := s.buildServedModel(rec.Req, out)
	if err := s.Register(m); err != nil {
		m.batcher.shutdown(nil)
		return err
	}
	return nil
}

// persistModel enqueues a fit outcome for durable publish (no-op without a
// store). Failures are absorbed into the persist-error counter — serving
// from memory beats failing the fit.
func (s *Server) persistModel(m *servedModel, out *fitOutcome) {
	if s.persist == nil {
		return
	}
	ck, err := buildCheckpoint(m.name, m.createdAt, out)
	if err != nil {
		s.persistErrors.Add(1)
		s.logf("store: encode checkpoint %s: %v", m.name, err)
		return
	}
	s.persist.enqueue(ck)
}

// fitStateHooks wires optimizer checkpointing into a fit: every
// CheckpointEvery iterations the BFGS state is atomically written to the
// store's fit-state area, so a SIGKILL mid-fit resumes from the last
// iterate. Persistence errors are absorbed (the fit must not die because a
// disk hiccuped); they surface in the persist-error counter instead.
func (s *Server) fitStateHooks(req FitRequest, gen synth.GenConfig, specID string, opts *inla.FitOptions) {
	if s.opts.Store == nil {
		return
	}
	spec, err := json.Marshal(specRecord{Req: req, Gen: gen, SpecID: specID, CreatedAt: time.Now()})
	if err != nil {
		s.persistErrors.Add(1)
		return
	}
	st := s.opts.Store
	opts.Opt.Checkpoint = func(ck *inla.OptCheckpoint) error {
		rec := &store.Checkpoint{
			Name:       req.Name,
			Generation: uint64(ck.Iter),
			Spec:       spec,
			Payload:    inla.MarshalOptCheckpoint(ck),
		}
		if err := st.SaveFitState(rec); err != nil {
			s.persistErrors.Add(1)
			s.logf("store: fit state %s: %v", req.Name, err)
		}
		if s.fitStateSaved != nil {
			s.fitStateSaved()
		}
		return nil
	}
	opts.Opt.CheckpointEvery = s.opts.CheckpointEvery
}

// logf forwards to Options.Logf when configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
