package main

import (
	"sort"
	"time"
)

// The machine's other tenants disturb a serve window in bursts of a few
// seconds. So a serve window is cut into stretches, and its end-to-end
// times come from the calmer half of them, judged by the reference
// alone, never by the program's own times.

// stretchLen is the length of one stretch of a serve window.
const stretchLen = 3 * time.Second

// stretch is what one stretch of a serve window measured.
type stretch struct {
	lat, rates       []float64     // raw latency (ms) and service rate (Msite/s) of the done jobs due in it
	refBasis, refCPU []float64     // basis and CPU time of the serve references run in it, ms
	cpu              time.Duration // process CPU spent in it, its references' excluded
	done             int           // jobs seen terminal in it
}

// stretches indexes a window's stretches by time since its start.
type stretches struct {
	start time.Time
	all   []stretch
}

// at returns the index of the stretch holding t, adding stretches up to
// it; times before the window fall in the first.
func (s *stretches) at(t time.Time) int {
	k := max(0, int(t.Sub(s.start)/stretchLen))
	for len(s.all) <= k {
		s.all = append(s.all, stretch{})
	}
	return k
}

// calmest pools the calmer half of the stretches that saw both a done
// job and a serve reference, ranked by their median reference basis,
// and returns the pool and how many stretches it holds. With no such
// stretch it pools them all.
func (s *stretches) calmest() (pool stretch, kept int) {
	var idx []int
	for k, st := range s.all {
		if len(st.lat) > 0 && len(st.refBasis) > 0 {
			idx = append(idx, k)
		}
	}
	if len(idx) == 0 {
		for k := range s.all {
			idx = append(idx, k)
		}
	} else {
		sort.SliceStable(idx, func(a, b int) bool {
			return percentile(s.all[idx[a]].refBasis, .5) < percentile(s.all[idx[b]].refBasis, .5)
		})
		idx = idx[:(len(idx)+1)/2]
	}
	for _, k := range idx {
		st := s.all[k]
		pool.lat = append(pool.lat, st.lat...)
		pool.rates = append(pool.rates, st.rates...)
		pool.refBasis = append(pool.refBasis, st.refBasis...)
		pool.refCPU = append(pool.refCPU, st.refCPU...)
		pool.cpu += st.cpu
		pool.done += st.done
	}
	return pool, len(idx)
}
