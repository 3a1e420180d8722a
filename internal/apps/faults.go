package apps

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// faultRSUSampler is rsuSampler with the fault-injection session in the
// loop: every site update runs rsu.SampleFaulty against the site row's
// fault context and applies the session's degradation policy. The fault
// domain is the image row (unit index = y): in the checkerboard engine
// a row is swept by exactly one worker per color pass and BeginSweep
// runs between sweeps only, so the per-unit mutable state is never
// shared between concurrently running goroutines and results are
// invariant to the worker count.
type faultRSUSampler struct {
	app  App
	unit *rsu.Unit
	sess *fault.Session
	in   rsu.Input // operand registers, restaged per site
	buf  []float64 // CMOS fallback kernel scratch
}

// NewFaultRSUSampler returns a gibbs.Factory whose samplers thread the
// fault session through the RSU sampling path. All workers share the
// session (its state is sharded per row); each worker gets its own
// scratch.
func NewFaultRSUSampler(a App, u *rsu.Unit, sess *fault.Session) gibbs.Factory {
	return func() gibbs.Sampler {
		return &faultRSUSampler{app: a, unit: u, sess: sess, in: NewRSUInput(u)}
	}
}

// Name implements gibbs.Sampler.
func (s *faultRSUSampler) Name() string {
	return fmt.Sprintf("rsu-g%d-%v+faults-%v",
		s.unit.Config().Width, s.unit.Config().Mode, s.sess.Policy())
}

// BeginSweep implements gibbs.SweepAware: it advances the fault session
// to the new sweep (rebuilding each row's active fault effects). The
// session deduplicates by sweep index — every worker's sampler makes
// this call, only the first acts.
func (s *faultRSUSampler) BeginSweep(iteration int) {
	s.sess.BeginSweep(iteration)
}

// SampleSite implements gibbs.Sampler: the per-site policy loop from
// the rsu.SampleFaulty contract. Quarantined rows keep their labels,
// fallback rows run the exact CMOS Gibbs kernel, sampling rows draw on
// the (possibly degraded) RSU and react to the session's verdict —
// redraw on a transient suspect, keep the current label on a reject,
// or switch to the CMOS kernel when the policy escalates mid-sample.
func (s *faultRSUSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	uc := s.sess.Unit(y)
	switch uc.Directive() {
	case fault.DirectiveSkip:
		return lm.At(x, y)
	case fault.DirectiveFallback:
		return s.cmosSample(m, lm, x, y, src)
	}
	s.app.RSUInput(&s.in, lm, x, y)
	for tries := 0; ; tries++ {
		label, _ := s.unit.SampleFaulty(s.in, src, uc)
		switch uc.AfterSample(tries) {
		case fault.ReactAccept:
			return int(label)
		case fault.ReactResample:
			continue
		default: // ReactReject
			// The policy discarded the sample. If it escalated this
			// row to CMOS fallback the site redraws exactly; otherwise
			// the reject keeps the current label (a rejected move).
			if uc.Directive() == fault.DirectiveFallback {
				return s.cmosSample(m, lm, x, y, src)
			}
			return lm.At(x, y)
		}
	}
}

// cmosSample is the exact software Gibbs kernel (the whole-unit
// fallback target): full quality at software cost.
func (s *faultRSUSampler) cmosSample(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	s.buf = m.ConditionalRates(s.buf, lm, x, y)
	return src.CategoricalRates(s.buf)
}
