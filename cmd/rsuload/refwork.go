package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Reference work: a fixed amount of computation and of durable writing,
// written here and sharing no code with the repository. The machine the
// benchmark was calibrated on is a shared VM whose speed drifts by up to
// two times over minutes, and a slow minute slows reference work of the
// same shape about as much as the workload. So every timed metric is
// reported at reference pace: the raw time times nominal / (the
// reference work timed beside it). The reference work belongs to the
// benchmark, never to the program under test, so a change to the
// program moves only the raw time.

const (
	// refEvals is the label evaluations of one CPU reference per
	// goroutine, 10 to 30 ms on the calibration machine.
	refEvals = 4 << 20
	// refWrites durable writes of refBytes each, and one sweep of a
	// 128×128, 8-label reference model, make one serve reference.
	refWrites = 4
	refBytes  = 16 << 10
)

// refModel is a W×H grid with M labels, a per-site unary table and a
// pairwise table, updated by a plain checkerboard sweep: per site and
// label five table lookups, and an arg-min under an xorshift
// perturbation. It has the shape of the workload's model, so it loads
// the caches the way a sweep of that model does.
type refModel struct {
	w, h, m int
	unary   []int32 // (y*w+x)*m + label
	pair    []int32 // a*m + b
}

func newRefModel(w, h, m int) *refModel {
	r := &refModel{w: w, h: h, m: m, unary: make([]int32, w*h*m), pair: make([]int32, m*m)}
	for i := range r.unary {
		r.unary[i] = int32(i*2654435761>>7) & 63
	}
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			r.pair[a*m+b] = int32((a-b)*(a-b)) % 11
		}
	}
	return r
}

// sweepsPerRef is how many sweeps make refEvals label evaluations.
func (r *refModel) sweepsPerRef() int { return max(1, refEvals/(r.w*r.h*r.m)) }

func (r *refModel) labels(g int) []uint8 {
	l := make([]uint8, r.w*r.h)
	for i := range l {
		l[i] = uint8((i*7 + g) % r.m)
	}
	return l
}

// sweepColor updates the interior sites of one checkerboard color of
// labels and returns the generator state.
func (r *refModel) sweepColor(labels []uint8, color int, s uint64) uint64 {
	w, m := r.w, r.m
	for y := 1; y < r.h-1; y++ {
		for x := 1 + (y+1+color)%2; x < w-1; x += 2 {
			i := y*w + x
			up, dn, lf, rt := int(labels[i-w]), int(labels[i+w]), int(labels[i-1]), int(labels[i+1])
			un := r.unary[i*m : i*m+m]
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			best, bestE := 0, int32(1<<30)
			for l := range un {
				e := un[l] + r.pair[l*m+up] + r.pair[l*m+dn] + r.pair[l*m+lf] + r.pair[l*m+rt] + int32(s>>(l&31))&15
				if e < bestE {
					best, bestE = l, e
				}
			}
			labels[i] = uint8(best)
		}
	}
	return s
}

// refSink keeps the sweeps' results live; nothing reads it.
var refSink []uint64

// refTime is one reference run's wall time and the process's CPU time
// during it.
type refTime struct{ wall, cpu time.Duration }

// run runs one CPU reference: sweepsPerRef checkerboard sweeps on each
// of n goroutines (each on labels of its own), with a barrier after
// every color as in the sweep engine, so that a stalled processor delays
// it as it delays a solve.
func (r *refModel) run(n int) refTime {
	grids := make([][]uint8, n)
	for g := range grids {
		grids[g] = r.labels(g)
	}
	out := make([]uint64, n)
	c0, t0 := cpuTime(), time.Now()
	for p := 0; p < 2*r.sweepsPerRef(); p++ {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out[g] = r.sweepColor(grids[g], p%2, out[g]+uint64(g)+1)
			}(g)
		}
		wg.Wait()
	}
	t := refTime{time.Since(t0), cpuTime() - c0}
	refSink = out
	return t
}

// jobRef is the reference for a served job, whose time goes mostly to
// durable snapshot writes.
type jobRef struct {
	dir   string
	data  []byte
	model *refModel
	grid  []uint8
}

func newJobRef(dir string) *jobRef {
	data := make([]byte, refBytes)
	for i := range data {
		data[i] = byte(i)
	}
	m := newRefModel(128, 128, 8)
	return &jobRef{dir: dir, data: data, model: m, grid: m.labels(0)}
}

// run runs one serve reference: refWrites writes of refBytes into dir,
// each a temporary file, fsync, rename and directory fsync, then one
// sweep of the reference model.
func (j *jobRef) run() (refTime, error) {
	path := filepath.Join(j.dir, "ref.dat")
	c0, t0 := cpuTime(), time.Now()
	for i := 0; i < refWrites; i++ {
		if err := writeDurable(path, j.data); err != nil {
			return refTime{}, fmt.Errorf("reference write: %w", err)
		}
	}
	s := j.model.sweepColor(j.grid, 0, 1)
	s = j.model.sweepColor(j.grid, 1, s)
	t := refTime{time.Since(t0), cpuTime() - c0}
	refSink = []uint64{s}
	return t, os.Remove(path)
}

func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// pace converts times measured beside reference work into
// reference-machine times: wall times scale by the workload's nominal
// over the measured basis, CPU times by its nominal over the measured
// reference CPU time.
type pace struct{ wall, cpu float64 }

func (w workload) pace(basisMS, cpuMS float64) pace {
	return pace{w.refMS / basisMS, w.refCPUMS / cpuMS}
}

// basis is the part of a reference run's time that the workload's wall
// times scale with. A batch solve computes, so it is the CPU reference's
// wall time. A served job spends most of its time waiting on fsync, so
// it is the serve reference's time off the CPU, wall less CPU time:
// across runs from calm to four times slower, served latency tracked it
// within 17 % and the reference's wall time only within 47 %.
func (w workload) basis(t refTime) float64 {
	if w.serve {
		// Another goroutine's CPU can overlap the run; the floor keeps one
		// such sample from pacing by a near-zero basis.
		return msOf(max(t.wall-t.cpu, t.wall/10))
	}
	return msOf(t.wall)
}
