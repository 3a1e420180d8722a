package migrate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/backoff"
)

// replItem is one unit of replication work: a journal frame carrying
// its bytes, or a snapshot send identified by job (the file is read at
// send time, so rapid checkpoint cadences coalesce into one transfer
// of the newest generation).
type replItem struct {
	kind string // "record" | "status" | "labels" | "snapshot"
	job  string
	data []byte
}

// Primary is the replication sender: an asynchronous, ordered frame
// queue drained by Run's sender loop, a heartbeat stream keeping the
// standby's failure detector fed, and the lease that makes every byte
// it sends fencable. Enqueue methods never block the solve path;
// Flush provides the synchronous barrier planned handoffs need.
type Primary struct {
	cfg      Config
	reg      *obs.Registry
	led      *ledger
	snapPath func(id string) string
	onLeased func(epoch uint64)
	onFenced func()

	mu       sync.Mutex
	frames   []replItem
	dirty    map[string]bool
	order    []string
	inflight int
	epoch    uint64
	leased   bool
	fenced   bool
	notify   chan struct{}
	change   chan struct{}
}

// NewPrimary opens the node's lease ledger under stateDir and returns
// the sender. snapPath maps a job ID to its local snapshot file;
// onLeased fires once when the standby grants ownership (the serving
// layer activates then); onFenced fires once if the standby ever
// refuses this node's epoch (the serving layer must stop running
// jobs). Both callbacks run on replication goroutines.
func NewPrimary(stateDir string, cfg Config, reg *obs.Registry, snapPath func(id string) string,
	onLeased func(epoch uint64), onFenced func()) (*Primary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.New()
	}
	led, err := openLedger(stateDir)
	if err != nil {
		return nil, err
	}
	return &Primary{
		cfg:      cfg,
		reg:      reg,
		led:      led,
		snapPath: snapPath,
		onLeased: onLeased,
		onFenced: onFenced,
		dirty:    map[string]bool{},
		notify:   make(chan struct{}, 1),
		change:   make(chan struct{}),
	}, nil
}

// Epoch returns the currently held lease epoch (0 before the grant).
func (p *Primary) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Fenced reports whether the peer refused this node's authority.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// Record enqueues a job-record frame.
func (p *Primary) Record(id string, data []byte) { p.enqueue(replItem{kind: "record", job: id, data: data}) }

// Status enqueues a job-status frame.
func (p *Primary) Status(id string, data []byte) { p.enqueue(replItem{kind: "status", job: id, data: data}) }

// Labels enqueues a terminal-labels frame.
func (p *Primary) Labels(id string, data []byte) { p.enqueue(replItem{kind: "labels", job: id, data: data}) }

// Snapshot marks the job's chain snapshot dirty; the sender ships the
// newest on-disk generation. Safe to call from checkpoint-save hooks —
// it never blocks and repeated marks coalesce.
func (p *Primary) Snapshot(id string) {
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return
	}
	if !p.dirty[id] {
		p.dirty[id] = true
		p.order = append(p.order, id)
		p.reg.GaugeAdd("serve.repl.pending", 1)
	}
	p.signalLocked()
	p.mu.Unlock()
}

func (p *Primary) enqueue(it replItem) {
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		obs.Add(p.reg, "serve.repl.dropped_frames", 1)
		return
	}
	p.frames = append(p.frames, it)
	p.reg.GaugeAdd("serve.repl.pending", 1)
	p.signalLocked()
	p.mu.Unlock()
}

// signalLocked nudges the sender; broadcastLocked wakes Flush waiters.
func (p *Primary) signalLocked() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

func (p *Primary) broadcastLocked() {
	close(p.change)
	p.change = make(chan struct{})
}

// Flush blocks until every enqueued frame and dirty snapshot has been
// delivered, the node is fenced (ErrFenced), or ctx expires. It is the
// barrier a planned handoff runs before transferring execution.
func (p *Primary) Flush(ctx context.Context) error {
	for {
		p.mu.Lock()
		if p.fenced {
			p.mu.Unlock()
			return ErrFenced
		}
		if len(p.frames) == 0 && len(p.order) == 0 && p.inflight == 0 {
			p.mu.Unlock()
			return nil
		}
		ch := p.change
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Run acquires the lease (retrying until the standby answers), reports
// it through onLeased, and then drives the heartbeat stream and the
// sender loop until ctx dies or the node is fenced.
func (p *Primary) Run(ctx context.Context) error {
	if err := p.acquireLease(ctx); err != nil {
		return err
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		p.heartbeatLoop(ctx)
	}()
	p.senderLoop(ctx)
	<-hbDone
	if p.Fenced() {
		return ErrFenced
	}
	return nil
}

// acquireLease proposes epochs until one is granted. A refusal with a
// higher current epoch re-proposes current+1; a 410 means the standby
// has seized ownership and this node fences itself permanently.
func (p *Primary) acquireLease(ctx context.Context) error {
	propose := p.led.Current().Epoch + 1
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		code, granted, err := p.requestLease(ctx, propose)
		switch {
		case err != nil:
			obs.Add(p.reg, "serve.repl.errors", 1)
			if serr := p.cfg.Sleep(ctx, p.cfg.HeartbeatEvery); serr != nil {
				return serr
			}
		case code == http.StatusOK:
			if cerr := p.led.Commit(leaseRecord{Epoch: granted, Node: p.cfg.NodeID}); cerr != nil {
				return cerr
			}
			p.mu.Lock()
			p.epoch = granted
			p.leased = true
			p.mu.Unlock()
			p.reg.Gauge("serve.migrate.lease_epoch", float64(granted))
			obs.Add(p.reg, "serve.migrate.leases_acquired", 1)
			if p.onLeased != nil {
				p.onLeased(granted)
			}
			return nil
		case code == http.StatusConflict:
			propose = granted + 1
		case code == http.StatusGone:
			p.fence()
			return ErrFenced
		default:
			obs.Add(p.reg, "serve.repl.errors", 1)
			if serr := p.cfg.Sleep(ctx, p.cfg.HeartbeatEvery); serr != nil {
				return serr
			}
		}
	}
}

// requestLease performs one lease POST, returning the HTTP code and
// the epoch the standby reported (granted on 200, current on 409).
func (p *Primary) requestLease(ctx context.Context, propose uint64) (int, uint64, error) {
	body, err := json.Marshal(leaseMsg{Node: p.cfg.NodeID, Epoch: propose})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.cfg.Peer+"/v1/repl/lease", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer drainClose(resp)
	var msg leaseMsg
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&msg)
	return resp.StatusCode, msg.Epoch, nil
}

// heartbeatLoop keeps the standby's failure detector fed. Send errors
// are counted but not retried — a missed beat is exactly the signal
// the detector exists to notice. A fencing response ends the loop.
func (p *Primary) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(p.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		body, err := json.Marshal(leaseMsg{Node: p.cfg.NodeID, Epoch: p.Epoch()})
		if err != nil {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.cfg.Peer+"/v1/repl/heartbeat", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
		resp, err := p.cfg.Client.Do(req)
		if err != nil {
			obs.Add(p.reg, "serve.migrate.heartbeat_errors", 1)
			continue
		}
		code := resp.StatusCode
		drainClose(resp)
		switch {
		case code == http.StatusNoContent || code == http.StatusOK:
			obs.Add(p.reg, "serve.migrate.heartbeats", 1)
		case code == http.StatusConflict || code == http.StatusGone:
			p.fence()
			return
		default:
			obs.Add(p.reg, "serve.migrate.heartbeat_errors", 1)
		}
	}
}

// senderLoop drains the frame queue in order. A delivery that exhausts
// its retry budget is requeued at the front and retried after a capped
// pause: a down standby costs replication lag, never primary
// availability, and never reorders a job's record/status stream.
func (p *Primary) senderLoop(ctx context.Context) {
	src := rng.New(p.cfg.JitterSeed)
	for {
		if ctx.Err() != nil || p.Fenced() {
			return
		}
		it, ok := p.next()
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-p.notify:
			}
			continue
		}
		var err error
		if it.kind == "snapshot" {
			err = p.sendSnapshot(ctx, src, it.job)
		} else {
			err = p.putFrame(ctx, src, it)
		}
		p.finish(it, err)
		if err != nil && !p.Fenced() && ctx.Err() == nil {
			obs.Add(p.reg, "serve.repl.errors", 1)
			_ = p.cfg.Sleep(ctx, p.cfg.Retry.Cap)
		}
	}
}

// next pops the head item: frames in FIFO order first, then dirty
// snapshots.
func (p *Primary) next() (replItem, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return replItem{}, false
	}
	if len(p.frames) > 0 {
		it := p.frames[0]
		p.frames = p.frames[1:]
		p.inflight = 1
		return it, true
	}
	if len(p.order) > 0 {
		id := p.order[0]
		p.order = p.order[1:]
		delete(p.dirty, id)
		p.inflight = 1
		return replItem{kind: "snapshot", job: id}, true
	}
	return replItem{}, false
}

// finish settles one delivery attempt: success retires the item,
// failure (when not fenced) requeues it at the front.
func (p *Primary) finish(it replItem, err error) {
	p.mu.Lock()
	p.inflight = 0
	switch {
	case p.fenced:
		// fence() already dropped the queue and zeroed the gauge.
	case err == nil:
		p.reg.GaugeAdd("serve.repl.pending", -1)
	case it.kind == "snapshot":
		if !p.dirty[it.job] {
			p.dirty[it.job] = true
			p.order = append([]string{it.job}, p.order...)
		} else {
			// Re-marked while in flight: already queued, drop the
			// duplicate pending count.
			p.reg.GaugeAdd("serve.repl.pending", -1)
		}
	default:
		p.frames = append([]replItem{it}, p.frames...)
	}
	p.broadcastLocked()
	p.mu.Unlock()
}

// fence records the loss of authority: the queue is dropped (nothing
// this node sends will ever be accepted again), and the serving layer
// is told to stop committing state.
func (p *Primary) fence() {
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return
	}
	p.fenced = true
	dropped := len(p.frames) + len(p.order) + p.inflight
	p.frames = nil
	p.order = nil
	p.dirty = map[string]bool{}
	p.broadcastLocked()
	p.signalLocked()
	p.mu.Unlock()
	if dropped > 0 {
		obs.Add(p.reg, "serve.repl.dropped_frames", int64(dropped))
	}
	p.reg.Gauge("serve.repl.pending", 0)
	obs.Add(p.reg, "serve.migrate.fenced", 1)
	if p.onFenced != nil {
		p.onFenced()
	}
}

// putFrame delivers one journal frame with the retry policy.
func (p *Primary) putFrame(ctx context.Context, src *rng.Source, it replItem) error {
	url := p.cfg.Peer + "/v1/repl/jobs/" + it.job + "/" + it.kind
	return backoff.Do(ctx, p.retryPolicy(), src, p.cfg.Sleep, func(ctx context.Context, _ int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(it.data))
		if err != nil {
			return backoff.Permanent(err)
		}
		req.Header.Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
		resp, err := p.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		code := resp.StatusCode
		drainClose(resp)
		switch {
		case code == http.StatusNoContent || code == http.StatusOK:
			obs.Add(p.reg, "serve.repl.frames", 1)
			obs.Add(p.reg, "serve.repl.bytes", int64(len(it.data)))
			return nil
		case code == http.StatusConflict || code == http.StatusGone:
			p.fence()
			return backoff.Permanent(ErrFenced)
		default:
			return fmt.Errorf("migrate: %s frame for %s -> %d", it.kind, it.job, code)
		}
	})
}

// retryPolicy returns the frame retry policy with ErrFenced permanent.
func (p *Primary) retryPolicy() backoff.Policy {
	pol := p.cfg.Retry
	pol.Permanent = append(append([]error(nil), pol.Permanent...), ErrFenced)
	return pol
}

// sendSnapshot ships the job's current on-disk snapshot generation,
// resuming from whatever byte offset of that generation the standby
// already holds. The snapshot is read once per attempt into a
// CRC-checked copy in memory, so every chunk comes from one complete
// generation even while newer ones overwrite the slot files.
func (p *Primary) sendSnapshot(ctx context.Context, src *rng.Source, job string) error {
	return backoff.Do(ctx, p.retryPolicy(), src, p.cfg.Sleep, func(ctx context.Context, _ int) error {
		sr, err := checkpoint.OpenStream(p.snapPath(job))
		switch {
		case errors.Is(err, os.ErrNotExist), errors.Is(err, checkpoint.ErrCorrupt):
			// Nothing sendable: the snapshot was dropped (corrupt-retry
			// path) or damaged locally; the solve layer owns recovery.
			return nil
		case err != nil:
			return err
		}
		gen := fmt.Sprintf("%016x", sr.CRC())
		off, complete, err := p.probeOffset(ctx, job, gen)
		if err != nil {
			return err
		}
		if complete {
			return nil
		}
		if off > 0 {
			obs.Add(p.reg, "serve.repl.snapshot_resumes", 1)
		}
		buf := make([]byte, p.cfg.ChunkBytes)
		for off < sr.Size() {
			n, rerr := sr.ReadChunk(off, buf)
			if rerr != nil {
				return rerr
			}
			final := off+int64(n) >= sr.Size()
			resync, perr := p.putChunk(ctx, job, gen, off, final, buf[:n])
			if perr != nil {
				return perr
			}
			if resync >= 0 {
				off = resync
				continue
			}
			off += int64(n)
			obs.Add(p.reg, "serve.repl.bytes", int64(n))
		}
		obs.Add(p.reg, "serve.repl.snapshots_sent", 1)
		return nil
	})
}

// probeOffset asks the standby how much of generation gen it holds.
func (p *Primary) probeOffset(ctx context.Context, job, gen string) (int64, bool, error) {
	url := p.cfg.Peer + "/v1/repl/jobs/" + job + "/snapshot/offset?gen=" + gen
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, backoff.Permanent(err)
	}
	req.Header.Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusOK:
		var msg offsetMsg
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&msg); derr != nil {
			return 0, false, derr
		}
		return msg.Offset, msg.Complete, nil
	case resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusGone:
		p.fence()
		return 0, false, backoff.Permanent(ErrFenced)
	default:
		return 0, false, fmt.Errorf("migrate: offset probe for %s -> %d", job, resp.StatusCode)
	}
}

// putChunk delivers one snapshot chunk. A 416 reports the offset the
// standby wants next (returned as resync >= 0); other failures error.
func (p *Primary) putChunk(ctx context.Context, job, gen string, off int64, final bool, chunk []byte) (int64, error) {
	fin := "0"
	if final {
		fin = "1"
	}
	url := fmt.Sprintf("%s/v1/repl/jobs/%s/snapshot?gen=%s&offset=%d&final=%s", p.cfg.Peer, job, gen, off, fin)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(chunk))
	if err != nil {
		return -1, backoff.Permanent(err)
	}
	req.Header.Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return -1, err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
		return -1, nil
	case resp.StatusCode == http.StatusRequestedRangeNotSatisfiable:
		var msg offsetMsg
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&msg); derr != nil {
			return -1, derr
		}
		return msg.Offset, nil
	case resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusGone:
		p.fence()
		return -1, backoff.Permanent(ErrFenced)
	default:
		return -1, fmt.Errorf("migrate: snapshot chunk for %s -> %d", job, resp.StatusCode)
	}
}

// Adopt transfers execution of a fully replicated job to the standby —
// the final step of a planned handoff, run after Flush has delivered
// every frame and the current snapshot.
func (p *Primary) Adopt(ctx context.Context, job string) error {
	if !validJobID.MatchString(job) {
		return fmt.Errorf("migrate: bad job id %q", job)
	}
	src := rng.New(p.cfg.JitterSeed ^ 0xada9)
	url := p.cfg.Peer + "/v1/repl/jobs/" + job + "/adopt"
	return backoff.Do(ctx, p.retryPolicy(), src, p.cfg.Sleep, func(ctx context.Context, _ int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
		if err != nil {
			return backoff.Permanent(err)
		}
		req.Header.Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
		resp, err := p.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		code := resp.StatusCode
		drainClose(resp)
		switch {
		case code == http.StatusOK || code == http.StatusNoContent:
			return nil
		case code == http.StatusConflict || code == http.StatusGone:
			p.fence()
			return backoff.Permanent(ErrFenced)
		default:
			return fmt.Errorf("migrate: adopt %s -> %d", job, code)
		}
	})
}

// drainClose discards the rest of a response body and closes it, so
// the client's connection pool can reuse the socket.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}
