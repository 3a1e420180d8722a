package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/serve"
)

// tailLimit bounds how long the generator waits after the last arrival
// for outstanding jobs to finish.
const tailLimit = 60 * time.Second

const (
	rssEvery     = 100 * time.Millisecond // how often the generator samples the resident set
	refEvery     = 100 * time.Millisecond // at most one serve reference this often
	refGap       = 30 * time.Millisecond  // a serve reference runs only this far from the next send
	refsBefore   = 5                      // serve references before the window
	refsPerSetup = 3                      // serve references pacing one setup repetition
)

// verifyChunk keeps verification submissions well inside the admission
// queue.
const verifyChunk = 32

// job follows one open-loop send through the states the poller saw.
type job struct {
	arrival
	trace                int
	due, sendStart, sent time.Time
	running, end         time.Time // first polls that saw running and a terminal state
	id                   string
	state                serve.State
	digest               string
	resumed              bool // a restart recovered it mid-chain
}

// loadServer is the in-process server under load. A restart replaces
// srv with a new incarnation on the same state directory; counters
// accumulates the retired incarnations' metrics.
type loadServer struct {
	cfg      serve.Config
	srv      *serve.Server
	counters map[string]int64
}

func newLoadServer(ctx context.Context, dir string) (*loadServer, error) {
	// The server's defaults except one worker per job: 2 shards, a
	// checkpoint every sweep, queue 64, model cache 8.
	ls := &loadServer{cfg: serve.Config{StateDir: dir, Shards: 2, WorkerOverride: 1}, counters: map[string]int64{}}
	return ls, ls.start(ctx)
}

func (ls *loadServer) start(ctx context.Context) error {
	srv, err := serve.New(ls.cfg)
	if err != nil {
		return err
	}
	ls.srv = srv
	return srv.Start(ctx)
}

// retire drains the current incarnation and banks its counters.
func (ls *loadServer) retire(ctx context.Context) error {
	err := ls.srv.Drain(ctx)
	for _, c := range ls.srv.Metrics().Snapshot().Counters {
		ls.counters[c.Name] += c.Value
	}
	return err
}

func (ls *loadServer) counter(name string) int64 {
	n := ls.counters[name]
	return n + ls.srv.Metrics().Snapshot().Counter(name)
}

// waitTerminal polls until every id is terminal and returns the
// statuses' digests and states.
func (ls *loadServer) waitTerminal(ctx context.Context, ids []string) (map[string]serve.State, map[string]string, error) {
	states, digests := map[string]serve.State{}, map[string]string{}
	deadline := time.Now().Add(tailLimit)
	for len(states) < len(ids) {
		for _, id := range ids {
			if _, ok := states[id]; ok {
				continue
			}
			_, st, err := ls.srv.Job(id)
			if err != nil {
				return nil, nil, err
			}
			if st.State.Terminal() {
				states[id], digests[id] = st.State, st.Digest
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("jobs not terminal after %v", tailLimit)
		}
		time.Sleep(pollEvery)
	}
	return states, digests, nil
}

// submitAll submits specs under one tenant and waits for all of them,
// returning their digests in order; any state but done is an error.
func (ls *loadServer) submitAll(ctx context.Context, tenant string, specs []serve.JobSpec) ([]string, error) {
	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := ls.srv.Submit(tenant, sp)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	states, digests, err := ls.waitTerminal(ctx, ids)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		if states[id] != serve.StateDone {
			return nil, fmt.Errorf("job %s ended %s", id, states[id])
		}
		out[i] = digests[id]
	}
	return out, nil
}

// setupServe starts a server on a fresh state directory and has it
// serve the warm-up jobs (for serve-steady every model of the window, so
// the cache is full), repeatedly, each right after serve references that
// pace it; the last repetition's server takes the load.
func setupServe(ctx context.Context, rc runConfig, ref *jobRef, warm []serve.JobSpec) (*loadServer, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("state-%d", i))
		var basis, cpu []float64
		for k := 0; k < refsPerSetup; k++ {
			rt, err := ref.run()
			if err != nil {
				return nil, nil, err
			}
			basis, cpu = append(basis, rc.workload.basis(rt)), append(cpu, msOf(rt.cpu))
		}
		p := rc.workload.pace(percentile(basis, .5), percentile(cpu, .5))
		t0 := time.Now()
		ls, err := newLoadServer(ctx, dir)
		if err != nil {
			return nil, nil, err
		}
		if _, err := ls.submitAll(ctx, "alpha", warm); err != nil {
			_ = ls.srv.Drain(ctx) // the submit error is the one to report
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()*p.wall)
		if i == rc.shape.serveSetupReps-1 {
			return ls, setups, nil
		}
		if err := ls.srv.Drain(ctx); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// verify checks every verifyEvery-th completed job, and every job a
// restart resumed mid-chain, against the same spec submitted through the
// same API on the reference path: closure energies, one worker.
func (ls *loadServer) verify(ctx context.Context, done []*job, tamper func(string) string) (sampled, resumed, mismatches int, err error) {
	sample := map[*job]bool{}
	for _, i := range verifySample(len(done)) {
		sample[done[i]] = true
	}
	var (
		specs []serve.JobSpec
		want  []string
	)
	for _, j := range done {
		if j.resumed {
			resumed++
		}
		if sample[j] || j.resumed {
			slow := j.Spec
			off := false
			slow.Compile, slow.Workers = &off, 1
			specs = append(specs, slow)
			want = append(want, j.digest)
		}
	}
	for lo := 0; lo < len(specs); lo += verifyChunk {
		got, err := ls.submitAll(ctx, "verify", specs[lo:min(lo+verifyChunk, len(specs))])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("verification jobs: %w", err)
		}
		for i, d := range got {
			if tamper != nil {
				d = tamper(d)
			}
			if d != want[lo+i] {
				mismatches++
			}
		}
	}
	return len(specs), resumed, mismatches, nil
}

// runServe drives a serve workload: an open loop of Poisson arrivals
// against an in-process server, polled from this goroutine.
func runServe(ctx context.Context, rc runConfig) (*result, *tracer, error) {
	sh, name := rc.shape, rc.workload.name
	res := &result{Workload: name, Trace: rc.trace, Valid: true}
	tr := newTracer(rc.trace)
	plan, err := planServe(name, sh, rc.seed, rc.window)
	if err != nil {
		return nil, nil, err
	}
	restarts := name == "serve-restart"

	ref := newJobRef(rc.dir)
	ls, setups, err := setupServe(ctx, rc, ref, plan.warm)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = ls.srv.Drain(context.Background()) }() // no-op once drained; covers early returns

	var (
		jobs          []*job
		outstanding   []*job
		lags, polls   []float64
		rssSamples    []float64
		lastRSS       time.Time
		labelsUS      []float64
		restartMS     []float64
		drainMS       []float64
		recoverMS     []float64
		downtime      [][2]time.Time
		next          int
		submitErrors  int
		labelFailures int
	)
	inDowntime := func(t time.Time) bool {
		for _, d := range downtime {
			if !t.Before(d[0]) && !t.After(d[1]) {
				return true
			}
		}
		return false
	}
	// Serve references run in the window's idle gaps: nothing
	// outstanding, and no send or restart due for refGap. A few before the
	// window make sure a short run has some.
	var (
		refBasis, refCPUs []float64
		refCPU            time.Duration
		lastRef           time.Time
		sts               stretches // set up when the window starts
		cur               int       // the stretch the loop is in
		cpuMark           time.Duration
	)
	sampleRef := func() error {
		t, err := ref.run()
		refCPU += t.cpu
		lastRef = time.Now()
		b := rc.workload.basis(t)
		refBasis, refCPUs = append(refBasis, b), append(refCPUs, msOf(t.cpu))
		if !sts.start.IsZero() {
			st := &sts.all[cur]
			st.refBasis, st.refCPU = append(st.refBasis, b), append(st.refCPU, msOf(t.cpu))
			st.cpu -= t.cpu
		}
		return err
	}
	for k := 0; k < refsBefore; k++ {
		if err := sampleRef(); err != nil {
			return nil, nil, err
		}
	}
	refCPU = 0 // only the window's references are taken off its CPU time
	cpu0, start := cpuTime(), time.Now()
	sts.start = start
	cur, cpuMark = sts.at(start), cpu0
	nextRestart := start.Add(sh.restartEvery)
	for {
		now := time.Now()
		if k := sts.at(now); k != cur {
			c := cpuTime()
			sts.all[cur].cpu += c - cpuMark
			cur, cpuMark = k, c
		}
		for next < len(plan.arrivals) && !start.Add(plan.arrivals[next].At).After(now) {
			j := &job{arrival: plan.arrivals[next], trace: next + 1, due: start.Add(plan.arrivals[next].At)}
			next++
			jobs = append(jobs, j)
			j.sendStart = time.Now()
			if !inDowntime(j.due) {
				lags = append(lags, msOf(j.sendStart.Sub(j.due)))
			}
			j.id, err = ls.srv.Submit(j.Tenant, j.Spec)
			j.sent = time.Now()
			if err != nil {
				submitErrors++
				continue
			}
			outstanding = append(outstanding, j)
		}

		// Arrivals that fall due while the server is down are sent once
		// it is back; their wait counts toward their latency.
		if restarts && next < len(plan.arrivals) && !time.Now().Before(nextRestart) {
			rs := tr.begin("loadgen.restart", 0, 0)
			d0 := time.Now()
			sp := tr.begin("serve.drain", 0, rs)
			err := ls.retire(ctx)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			d1 := time.Now()
			sp = tr.begin("serve.recover", 0, rs)
			srv, err := serve.New(ls.cfg)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			d2 := time.Now()
			ls.srv = srv
			for _, j := range outstanding {
				if _, st, err := srv.Job(j.id); err == nil && st.Sweeps > 0 {
					j.resumed = true
				}
			}
			sp = tr.begin("serve.start", 0, rs)
			err = srv.Start(ctx)
			tr.end(sp)
			tr.end(rs)
			if err != nil {
				return nil, nil, err
			}
			d3 := time.Now()
			drainMS = append(drainMS, msOf(d1.Sub(d0)))
			recoverMS = append(recoverMS, msOf(d2.Sub(d1)))
			restartMS = append(restartMS, msOf(d3.Sub(d0)))
			downtime = append(downtime, [2]time.Time{d0, d3})
			nextRestart = nextRestart.Add(sh.restartEvery)
		}

		p0 := time.Now()
		kept := outstanding[:0]
		for _, j := range outstanding {
			_, st, err := ls.srv.Job(j.id)
			seen := time.Now()
			if err != nil {
				return nil, nil, err
			}
			switch {
			case st.State.Terminal():
				j.end, j.state, j.digest = seen, st.State, st.Digest
				sts.all[cur].done++
				if j.running.IsZero() {
					j.running = seen
				}
				if j.state == serve.StateDone {
					l0 := time.Now()
					pgm, err := ls.srv.Labels(j.id)
					labelsUS = append(labelsUS, float64(time.Since(l0))/1e3)
					if err != nil || len(pgm) == 0 {
						labelFailures++
					}
					if tr.on {
						tr.interval("serve.labels", j.trace, 0, l0, time.Now())
					}
				}
				continue
			case st.State == serve.StateRunning && j.running.IsZero():
				j.running = seen
			}
			kept = append(kept, j)
		}
		outstanding = kept
		polls = append(polls, msOf(time.Since(p0)))
		if time.Since(lastRSS) >= rssEvery {
			if r, err := rssMiB(); err == nil {
				rssSamples = append(rssSamples, r)
			}
			lastRSS = time.Now()
		}

		if next == len(plan.arrivals) && len(outstanding) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if time.Since(start) > rc.window+tailLimit {
			return nil, nil, fmt.Errorf("%s: %d jobs still outstanding %v after the window", name, len(outstanding), tailLimit)
		}
		farOff := func(t time.Time) bool { return time.Until(t) > refGap }
		if len(outstanding) == 0 && next < len(plan.arrivals) && farOff(start.Add(plan.arrivals[next].At)) &&
			(!restarts || farOff(nextRestart)) && time.Since(lastRef) >= refEvery {
			if err := sampleRef(); err != nil {
				return nil, nil, err
			}
		}
		wait := pollEvery
		if next < len(plan.arrivals) {
			wait = min(wait, time.Until(start.Add(plan.arrivals[next].At)))
			if restarts {
				wait = min(wait, time.Until(nextRestart))
			}
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	cpuEnd, wall := cpuTime(), time.Since(start)
	cpu := cpuEnd - cpu0 - refCPU
	sts.all[cur].cpu += cpuEnd - cpuMark
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}

	// Per-job intervals, and their spans in the traced run.
	var (
		latency, queueMS, runMS, submitUS, rates []float64
		done                                     []*job
		sloMet                                   int
	)
	for _, j := range jobs {
		submitUS = append(submitUS, float64(j.sent.Sub(j.sendStart))/1e3)
		if j.id == "" {
			continue
		}
		if tr.on {
			op := tr.interval("op", j.trace, 0, j.due, j.end)
			tr.interval("serve.submit", j.trace, op, j.sendStart, j.sent)
			tr.interval("serve.queue_wait", j.trace, op, j.sent, j.running)
			tr.interval("serve.run", j.trace, op, j.running, j.end)
		}
		if j.state != serve.StateDone {
			continue
		}
		done = append(done, j)
		lat := msOf(j.end.Sub(j.due))
		latency = append(latency, lat)
		if lat <= sloMS {
			sloMet++
		}
		queueMS = append(queueMS, msOf(j.running.Sub(j.sent)))
		runMS = append(runMS, msOf(j.end.Sub(j.running)))
		// Polling cannot resolve a run shorter than one poll period.
		rate := float64(j.sites()) / msOf(max(j.end.Sub(j.running), pollEvery)) / 1e3
		rates = append(rates, rate)
		st := &sts.all[sts.at(j.due)]
		st.lat, st.rates = append(st.lat, lat), append(st.rates, rate)
	}
	if len(done) == 0 {
		return nil, nil, fmt.Errorf("%s: no job completed", name)
	}
	windowSpans := len(tr.spans)
	res.Attempted = len(jobs)
	res.Failed = len(jobs) - len(done) + labelFailures

	// The end-to-end times come from the calmer half of the window's
	// stretches, paced by their serve references; the tails from the
	// whole window, paced by all of its references. The SLO holds against
	// the raw latency a client sees.
	pool, kept := sts.calmest()
	if len(pool.refBasis) == 0 {
		pool.refBasis, pool.refCPU = refBasis, refCPUs
	}
	p := rc.workload.pace(percentile(pool.refBasis, .5), percentile(pool.refCPU, .5))
	cpuPerJob := msOf(cpu) / float64(len(done))
	if pool.done > 0 {
		cpuPerJob = msOf(pool.cpu) / float64(pool.done)
	}
	all := rc.workload.pace(percentile(refBasis, .5), percentile(refCPUs, .5))
	res.add("setup_s", percentile(setups, .5), "s")
	res.add("latency_p50_ms", percentile(pool.lat, .5)*p.wall, "ms")
	res.add("throughput_msites_s", percentile(pool.rates, .5)/p.wall, "Msite/s") // a job's service rate
	res.add("cpu_ms_per_op", cpuPerJob*p.cpu, "ms")
	res.add("rss_p50_mb", percentile(rssSamples, .5), "MiB")
	res.add("peak_rss_mb", rss, "MiB")
	res.add("loadgen.latency_p90_ms", percentile(latency, .9)*all.wall, "ms")
	res.add("loadgen.latency_p99_ms", percentile(latency, .99)*all.wall, "ms")
	res.add("loadgen.raw_latency_p50_ms", percentile(latency, .5), "ms")
	res.add("loadgen.pace_p50", p.wall, "ratio")
	res.add("loadgen.stretches_kept", float64(kept), "count")
	res.add("loadgen.ref_ms", percentile(refBasis, .5), "ms")
	res.add("loadgen.ref_cpu_ms", percentile(refCPUs, .5), "ms")
	res.add("loadgen.refs", float64(len(refBasis)), "count")
	res.add("loadgen.sent", float64(len(jobs)), "count")
	res.add("slo_met_frac", float64(sloMet)/float64(len(jobs)), "ratio")
	lagP99 := percentile(lags, .99)
	res.Valid = len(lags) == 0 || lagP99 <= lagLimitMS
	res.add("loadgen.lag_p99_ms", lagP99, "ms")
	res.add("loadgen.poll_ms", sum(polls)/float64(len(polls)), "ms")
	res.add("serve.submit_p50_us", percentile(submitUS, .5), "us")
	res.add("serve.submit_p99_us", percentile(submitUS, .99), "us")
	res.add("serve.queue_wait_p50_ms", percentile(queueMS, .5), "ms")
	res.add("serve.run_p50_ms", percentile(runMS, .5), "ms")
	res.add("serve.labels_p50_us", percentile(labelsUS, .5), "us")
	res.add("serve.busy_frac", sum(runMS)/(float64(ls.cfg.Shards)*msOf(wall)), "ratio")
	hits, misses := ls.counter("serve.cache.hits"), ls.counter("serve.cache.misses")
	res.add("serve.cache_hits", float64(hits), "count")
	res.add("serve.cache_misses", float64(misses), "count")
	res.add("serve.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	shed := ls.counter("serve.shed.queue") + ls.counter("serve.shed.rate") + ls.counter("serve.shed.quota") +
		ls.counter("serve.shed.draining")
	res.add("serve.shed", float64(shed), "count")
	res.add("serve.submit_errors", float64(submitErrors), "count")
	res.add("serve.retries", float64(ls.counter("serve.retries")), "count")
	res.add("serve.failed", float64(ls.counter("serve.jobs.failed")), "count")
	res.add("serve.resumed_completed", float64(ls.counter("serve.jobs.resumed_completed")), "count")
	res.add("restart_p50_ms", percentile(restartMS, .5), "ms")
	res.add("loadgen.restarts", float64(len(restartMS)), "count")

	sampled, resumed, mismatches, err := ls.verify(ctx, done, rc.tamper)
	if err != nil {
		return nil, nil, err
	}
	res.Mismatches += mismatches
	res.add("verify.sampled", float64(sampled), "count")
	res.add("verify.resumed", float64(resumed), "count")

	// Recovery probe: drain, then rebuild a server from the whole journal.
	d0 := time.Now()
	if err := ls.retire(ctx); err != nil {
		return nil, nil, err
	}
	drainMS = append(drainMS, msOf(time.Since(d0)))
	r0 := time.Now()
	srv, err := serve.New(ls.cfg)
	if err != nil {
		return nil, nil, err
	}
	recoverMS = append(recoverMS, msOf(time.Since(r0)))
	ls.srv = srv
	res.add("serve.drain_ms", percentile(drainMS, .5), "ms")
	res.add("serve.recover_ms", percentile(recoverMS, .5), "ms")
	res.add("error_frac", float64(res.Failed+res.Mismatches)/float64(res.Attempted), "ratio")

	if rc.trace {
		var cases []replayCase
		for _, i := range evenly(len(done), sh.replayServe) {
			sp := done[i].Spec
			cases = append(cases, replayCase{
				build: func() (apps.App, error) { return serveApp(sp) },
				cfg:   serveConfig(sp, ""),
				want:  done[i].digest,
			})
		}
		if err := replay(ctx, rc, tr, cases, res); err != nil {
			return nil, nil, err
		}
		res.add("loadgen.trace_overhead_frac", overheadFrac(windowSpans, wall), "ratio")
	}
	return res, tr, nil
}
