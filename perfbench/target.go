package main

import (
	"context"
	"fmt"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// sink records every delivered match with its delivery time. The
// runtime serializes calls per query, so one sink per query needs no
// lock; the phase reads it only after Drain has returned.
type sink struct {
	t0      time.Time // phase clock origin, set before the first feed
	matches []spectre.ComplexEvent
	at      []time.Duration // delivery time of matches[i] since t0
	err     error
	tr      *tracer
	span    int // span id of the running phase
}

func (s *sink) OnMatch(ce spectre.ComplexEvent) {
	d := time.Since(s.t0)
	id := s.tr.begin("OnMatch", s.span)
	s.matches = append(s.matches, ce)
	s.at = append(s.at, d)
	s.tr.end(id)
}

func (s *sink) OnError(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *sink) OnDrain() {}

// reset readies the sink for a new phase starting at t0.
func (s *sink) reset(t0 time.Time, span int) {
	s.t0 = t0
	s.span = span
	s.matches = s.matches[:0]
	s.at = s.at[:0]
	s.err = nil
}

// lastAt is the delivery time of the phase's last match.
func (s *sink) lastAt() time.Duration {
	if len(s.at) == 0 {
		return 0
	}
	return s.at[len(s.at)-1]
}

// target is one deployment of a workload's queries: a local Runtime or
// a coordinator with two workers. Every call goes through the public API.
type target interface {
	// feed hands the batch to every query, in submission order.
	feed(ctx context.Context, evs []spectre.Event, span int) error
	// drain ends every query's stream and waits for its last match.
	drain(ctx context.Context, span int) error
	// shutdown closes the runtime or coordinator and its workers.
	shutdown() error
	// metrics returns each query's engine counters (local runs only).
	metrics() []spectre.Metrics
	// links returns the transport counters (cluster runs only).
	links() linkStats
}

type linkStats struct {
	sent, recv, frames, shipped, deduped, workerRecv uint64
}

// deploy starts the workload's deployment and submits its queries, one
// sink each. It is the set-up the benchmark times.
func deploy(ctx context.Context, w *workload, reg *spectre.Registry, sinks []*sink, tr *tracer, parent int) (target, error) {
	if w.cluster {
		return deployCluster(ctx, w, reg, sinks, tr, parent)
	}
	return deployLocal(ctx, w, reg, sinks, tr, parent)
}

type localTarget struct {
	rt      *spectre.Runtime
	handles []*spectre.Handle
	tr      *tracer
}

func deployLocal(ctx context.Context, w *workload, reg *spectre.Registry, sinks []*sink, tr *tracer, parent int) (target, error) {
	// One pool worker: with two, a shard's completion can run twice and
	// crash the process (see README.md, "Faults seen").
	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	t := &localTarget{rt: rt, tr: tr}
	for i, qs := range w.queries {
		id := tr.begin("Submit", parent)
		q, err := qs.compile(reg)
		if err == nil {
			var h *spectre.Handle
			h, err = rt.Submit(ctx, q, sinks[i])
			t.handles = append(t.handles, h)
		}
		tr.end(id)
		if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("submit %s: %w", w.name, err)
		}
	}
	return t, nil
}

func (t *localTarget) feed(ctx context.Context, evs []spectre.Event, span int) error {
	for _, h := range t.handles {
		id := t.tr.begin("FeedBatch", span)
		err := h.FeedBatch(ctx, evs)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *localTarget) drain(_ context.Context, span int) error {
	for _, h := range t.handles {
		id := t.tr.begin("Drain", span)
		h.Drain()
		t.tr.end(id)
	}
	return nil
}

func (t *localTarget) shutdown() error { return t.rt.Close() }

func (t *localTarget) metrics() []spectre.Metrics {
	out := make([]spectre.Metrics, len(t.handles))
	for i, h := range t.handles {
		out[i] = h.Metrics()
	}
	return out
}

func (t *localTarget) links() linkStats { return linkStats{} }

type clusterTarget struct {
	cl      *spectre.Cluster
	workers []*spectre.ClusterWorker
	handles []*spectre.ClusterHandle
	tr      *tracer
}

// clusterWorkers is the number of loopback workers joined per cluster.
const clusterWorkers = 2

func deployCluster(ctx context.Context, w *workload, reg *spectre.Registry, sinks []*sink, tr *tracer, parent int) (target, error) {
	cl, err := spectre.ListenCluster("127.0.0.1:0", reg, spectre.ClusterOptions{MinWorkers: clusterWorkers})
	if err != nil {
		return nil, err
	}
	t := &clusterTarget{cl: cl, tr: tr}
	for i := 0; i < clusterWorkers; i++ {
		id := tr.begin("JoinCluster", parent)
		wk, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), cl.Addr().String(), spectre.ClusterWorkerOptions{})
		tr.end(id)
		if err != nil {
			_ = t.shutdown()
			return nil, fmt.Errorf("join worker %d: %w", i, err)
		}
		t.workers = append(t.workers, wk)
	}
	for i, qs := range w.queries {
		id := tr.begin("Submit", parent)
		h, err := cl.Submit(ctx, qs.text, sinks[i])
		tr.end(id)
		if err != nil {
			_ = t.shutdown()
			return nil, fmt.Errorf("submit %s: %w", w.name, err)
		}
		t.handles = append(t.handles, h)
	}
	return t, nil
}

func (t *clusterTarget) feed(ctx context.Context, evs []spectre.Event, span int) error {
	for _, h := range t.handles {
		id := t.tr.begin("FeedBatch", span)
		err := h.FeedBatch(ctx, evs)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *clusterTarget) drain(ctx context.Context, span int) error {
	for _, h := range t.handles {
		id := t.tr.begin("Drain", span)
		err := h.Drain(ctx)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *clusterTarget) shutdown() error {
	err := t.cl.Close()
	for _, wk := range t.workers {
		wk.Close()
		// Wait reports the dropped coordinator link as an error, which is
		// the expected way for a worker to stop here.
		_ = wk.Wait()
	}
	return err
}

func (t *clusterTarget) metrics() []spectre.Metrics { return nil }

func (t *clusterTarget) links() linkStats {
	var s linkStats
	for _, l := range t.cl.LinkStats() {
		s.sent += l.BytesSent
		s.recv += l.BytesRecv
		s.frames += l.FramesSent
		s.shipped += l.EventsSent
		s.deduped += l.EventsDeduped
	}
	for _, wk := range t.workers {
		s.workerRecv += wk.Stats().BytesRecv
	}
	return s
}
