package gibbs

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
)

// CheckpointPolicy configures durable snapshots of a running chain.
// Snapshots are captured strictly at sweep boundaries (no SampleSite
// call in flight anywhere), so they are byte-deterministic and
// invariant to the worker count.
type CheckpointPolicy struct {
	// EverySweeps checkpoints after every Nth completed sweep (absolute
	// sweep index, so a resumed run checkpoints at the same boundaries
	// as an uninterrupted one). 0 disables sweep-count checkpointing.
	EverySweeps int
	// Every checkpoints when at least this much wall time has passed
	// since the last snapshot, evaluated at sweep boundaries. Requires
	// Now. 0 disables duration checkpointing.
	Every time.Duration
	// Now supplies the wall clock for Every. It is injected rather than
	// read directly so library code stays free of wall-clock reads (the
	// detrand invariant); CLI entry points pass time.Now.
	Now func() time.Time
	// Sink persists one snapshot (typically a checkpoint.Writer's Save,
	// which keeps the newest snapshot of the chain durable at a fixed
	// path). A Sink error aborts
	// the run: a checkpoint the caller asked for but could not keep is
	// a durability hole, not a warning.
	Sink func(*checkpoint.Snapshot) error
	// Extra, if non-nil, is called on each snapshot before Sink to
	// attach backend sections (fault-session state, RET aging state)
	// that the chain layer does not know about.
	Extra func(*checkpoint.Snapshot) error
	// Fingerprint is stamped into every snapshot; resume paths check it
	// against the run configuration.
	Fingerprint checkpoint.Fingerprint
}

// validate checks the policy is usable before the chain starts.
func (p *CheckpointPolicy) validate() error {
	if p.Sink == nil {
		return fmt.Errorf("gibbs: CheckpointPolicy needs a Sink")
	}
	if p.EverySweeps < 0 {
		return fmt.Errorf("gibbs: CheckpointPolicy.EverySweeps %d < 0", p.EverySweeps)
	}
	if p.Every < 0 {
		return fmt.Errorf("gibbs: CheckpointPolicy.Every %v < 0", p.Every)
	}
	if p.Every > 0 && p.Now == nil {
		return fmt.Errorf("gibbs: CheckpointPolicy.Every needs a Now clock")
	}
	return nil
}

// chainState bundles the mutable chain state Run threads through the
// capture/restore helpers.
type chainState struct {
	m      *mrf.Model
	lm     *img.LabelMap
	chain  *rng.Source
	rowSrc []*rng.Source // nil for raster runs
	counts []uint32      // nil unless TrackMode
	energy []float64
}

// capture builds a snapshot of the chain at the boundary before sweep
// `next`. Everything is deep-copied: the caller may keep mutating the
// chain while the snapshot is encoded.
func (cs *chainState) capture(pol *CheckpointPolicy, next int) (*checkpoint.Snapshot, error) {
	snap := &checkpoint.Snapshot{
		Sweep:  next,
		W:      cs.m.W,
		H:      cs.m.H,
		M:      cs.m.M,
		Labels: append([]uint8(nil), cs.lm.Labels...),
		Chain:  cs.chain.State(),
	}
	if pol != nil {
		snap.Fingerprint = pol.Fingerprint
	}
	if cs.rowSrc != nil {
		snap.Rows = make([][4]uint64, len(cs.rowSrc))
		for y, src := range cs.rowSrc {
			snap.Rows[y] = src.State()
		}
	}
	if cs.counts != nil {
		snap.Counts = append([]uint32(nil), cs.counts...)
	}
	if cs.energy != nil {
		snap.Energy = append([]float64(nil), cs.energy...)
	}
	if pol != nil && pol.Extra != nil {
		if err := pol.Extra(snap); err != nil {
			return nil, fmt.Errorf("gibbs: checkpoint extra state: %w", err)
		}
	}
	return snap, nil
}

// restore rewinds the chain state to the snapshot and returns the sweep
// index to resume from. The snapshot must match the model geometry and
// the run schedule; fingerprint checking is the caller's concern (the
// core layer owns the configuration identity).
func (cs *chainState) restore(snap *checkpoint.Snapshot, opt Options) (int, error) {
	if err := snap.Validate(); err != nil {
		return 0, err
	}
	if snap.W != cs.m.W || snap.H != cs.m.H || snap.M != cs.m.M {
		return 0, fmt.Errorf("%w: snapshot is %dx%d M=%d, model is %dx%d M=%d",
			checkpoint.ErrMismatch, snap.W, snap.H, snap.M, cs.m.W, cs.m.H, cs.m.M)
	}
	if snap.Sweep > opt.Iterations {
		return 0, fmt.Errorf("%w: snapshot at sweep %d, run has only %d iterations",
			checkpoint.ErrMismatch, snap.Sweep, opt.Iterations)
	}
	if (cs.rowSrc != nil) != (snap.Rows != nil) {
		return 0, fmt.Errorf("%w: snapshot schedule (row streams: %v) does not match run schedule (%v)",
			checkpoint.ErrMismatch, snap.Rows != nil, opt.Schedule)
	}
	copy(cs.lm.Labels, snap.Labels)
	if err := cs.chain.SetState(snap.Chain); err != nil {
		return 0, err
	}
	for y, src := range cs.rowSrc {
		if err := src.SetState(snap.Rows[y]); err != nil {
			return 0, err
		}
	}
	if cs.counts != nil {
		if snap.Counts == nil {
			if snap.Sweep > opt.BurnIn {
				return 0, fmt.Errorf("%w: mode tracking is on but the snapshot carries no counters past burn-in",
					checkpoint.ErrMismatch)
			}
		} else {
			copy(cs.counts, snap.Counts)
		}
	}
	cs.energy = append(cs.energy[:0], snap.Energy...)
	return snap.Sweep, nil
}
