package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// samples are the end-to-end measurements of one process. A run made of
// several processes merges them (see runParts).
type samples struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`

	Setup    []float64 `json:"setup_s"`    // per deployment
	Teardown []float64 `json:"teardown_s"` // per short lifecycle cycle

	// Per measured replay pass.
	Tput       []float64 `json:"throughput_eps"`
	CPU        []float64 `json:"cpu_us_per_event"`
	AllocBytes []float64 `json:"alloc_bytes_per_event"`
	Allocs     []float64 `json:"allocs_per_event"`
	HeapMiB    []float64 `json:"peak_heap_mb"`

	// Per paced phase, and every paced match's latency in ms.
	PacedCPU  []float64 `json:"paced_cpu_us_per_event"`
	Latencies []float64 `json:"latencies_ms"`
}

// merge appends o's samples to s.
func (s *samples) merge(o *samples) {
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Problems = append(s.Problems, o.Problems...)
	s.Setup = append(s.Setup, o.Setup...)
	s.Teardown = append(s.Teardown, o.Teardown...)
	s.Tput = append(s.Tput, o.Tput...)
	s.CPU = append(s.CPU, o.CPU...)
	s.AllocBytes = append(s.AllocBytes, o.AllocBytes...)
	s.Allocs = append(s.Allocs, o.Allocs...)
	s.HeapMiB = append(s.HeapMiB, o.HeapMiB...)
	s.PacedCPU = append(s.PacedCPU, o.PacedCPU...)
	s.Latencies = append(s.Latencies, o.Latencies...)
}

// replayResult holds a replay pass's per-layer readings.
type replayResult struct {
	gcCycles  float64
	gcPauseMS float64
	feedNS    float64 // time inside FeedBatch per source event (traced)
	feedShare float64 // time inside FeedBatch / replay duration (traced)
	core      spectre.Metrics
	links     linkStats
}

// pacedResult holds a paced phase's per-layer readings.
type pacedResult struct {
	lateMS float64 // how far the generator fell behind its schedule
	core   spectre.Metrics
}

// runner measures one workload. Every phase runs on a freshly deployed
// runtime or cluster and checks every query's output.
type runner struct {
	w     *workload
	in    *inputs
	tr    *tracer // nil on untraced runs
	ctx   context.Context
	sinks []*sink

	s       samples
	replays []replayResult
	paces   []pacedResult
}

func newRunner(ctx context.Context, w *workload, in *inputs, tr *tracer) *runner {
	r := &runner{w: w, in: in, tr: tr, ctx: ctx}
	for range w.queries {
		r.sinks = append(r.sinks, &sink{tr: tr})
	}
	return r
}

// minReplays is the least number of measured replay passes a run makes.
const minReplays = 3

// run spends the budget on short lifecycle cycles, which give the set-up
// and teardown times; where the workload asks for it, one replay pass to
// warm the process up, whose figures are dropped; measured replay passes,
// as many as fit, each after cyclesPerPass more cycles, so that the short
// timings are taken all through the run; and the paced phase, whose
// length its schedule fixes.
func (r *runner) run(budget time.Duration) error {
	start := time.Now()
	pass := 0
	step := func(name string, phase func(parent int) error) error {
		r.tr.setPass(pass)
		span := r.tr.begin(name, 0)
		defer r.tr.end(span)
		pass++
		return phase(span)
	}
	cycles := func(n int) error {
		for i := 0; i < n; i++ {
			if err := step("cycle", r.lifecycle); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cycles(r.w.cycles); err != nil {
		return err
	}
	if r.w.warmup {
		if err := step("warmup", r.replay); err != nil {
			return err
		}
		r.dropReplays()
	}
	pacedTime := r.w.pacedDuration()
	for n := 1; ; n++ {
		passStart := time.Now()
		if err := cycles(r.w.cyclesPerPass); err != nil {
			return err
		}
		if err := step("pass", r.replay); err != nil {
			return err
		}
		took := time.Since(passStart)
		if n >= minReplays && time.Since(start)+took+pacedTime > budget {
			break
		}
	}
	return step("pass", r.paced)
}

// deploy starts a deployment and records its set-up time: from inputs
// ready to the first event accepted, i.e. runtime or coordinator, worker
// joins, building or parsing the queries, and Submit.
func (r *runner) deploy(parent int) (target, error) {
	span := r.tr.begin("setup", parent)
	start := time.Now()
	t, err := deploy(r.ctx, r.w, r.in.reg, r.sinks, r.tr, span)
	r.s.Setup = append(r.s.Setup, time.Since(start).Seconds())
	r.tr.end(span)
	return t, err
}

// shutdown closes a deployment under a teardown span.
func (r *runner) shutdown(t target, parent int) error {
	td := r.tr.begin("teardown", parent)
	c := r.tr.begin("Close", td)
	err := t.shutdown()
	r.tr.end(c)
	r.tr.end(td)
	return err
}

// feedAll feeds events in batches of the workload's size as fast as
// backpressure allows, then drains.
func (r *runner) feedAll(t target, events []spectre.Event, span int) error {
	for lo := 0; lo < len(events); lo += batch {
		if err := t.feed(r.ctx, events[lo:min(lo+batch, len(events))], span); err != nil {
			return err
		}
	}
	return t.drain(r.ctx, span)
}

// lifecycle deploys, feeds the input's first cycleEvents events, drains
// and tears down. The deployment lives only milliseconds, so its teardown
// does not depend on where a periodic timer happens to stand after a long
// phase.
func (r *runner) lifecycle(parent int) error {
	t, err := r.deploy(parent)
	if err != nil {
		return err
	}
	events := r.in.events[:cycleEvents]
	span := r.tr.begin("short", parent)
	r.resetSinks(span)
	feedErr := r.feedAll(t, events, span)
	r.tr.end(span)
	drained := time.Now()
	err = r.shutdown(t, parent)
	r.s.Teardown = append(r.s.Teardown, time.Since(drained).Seconds())
	r.checkPhase("short", feedErr, r.in.cycleRef, t, uint64(len(events)))
	return err
}

// replay feeds the whole input as fast as backpressure allows and stops
// the clock at the last match delivered.
func (r *runner) replay(parent int) error {
	var res replayResult
	peak, err := r.withHeapPeak(func() error {
		t, err := r.deploy(parent)
		if err != nil {
			return err
		}
		events := r.in.replay
		span := r.tr.begin("replay", parent)
		before := sample()
		start := r.resetSinks(span)
		feedErr := r.feedAll(t, events, span)
		drained := time.Now()
		after := sample()
		r.tr.end(span)

		var delivered time.Duration
		for _, s := range r.sinks {
			delivered = max(delivered, s.lastAt())
		}
		if delivered == 0 {
			delivered = drained.Sub(start)
		}
		n := float64(len(events))
		r.s.Tput = append(r.s.Tput, n/delivered.Seconds())
		r.s.CPU = append(r.s.CPU, (after.cpu-before.cpu).Seconds()*1e6/n)
		r.s.AllocBytes = append(r.s.AllocBytes, float64(after.allocBytes-before.allocBytes)/n)
		r.s.Allocs = append(r.s.Allocs, float64(after.allocs-before.allocs)/n)
		res.gcCycles = float64(after.gcCycles - before.gcCycles)
		res.gcPauseMS = float64(after.gcPauseNS-before.gcPauseNS) / 1e6
		if r.tr != nil {
			fed := r.tr.total("FeedBatch", span)
			res.feedNS = float64(fed.Nanoseconds()) / n
			res.feedShare = fed.Seconds() / delivered.Seconds()
		}
		res.links = t.links() // link counters vanish with the cluster
		err = r.shutdown(t, parent)
		r.checkPhase("replay", feedErr, r.in.replayRef, t, uint64(len(events)))
		res.core = sumMetrics(t.metrics())
		return err
	})
	r.s.HeapMiB = append(r.s.HeapMiB, peak/(1<<20))
	r.replays = append(r.replays, res)
	return err
}

// dropReplays forgets the replay passes measured so far (the warm-up).
func (r *runner) dropReplays() {
	r.replays = r.replays[:0]
	r.s.Tput, r.s.CPU, r.s.AllocBytes, r.s.Allocs, r.s.HeapMiB = nil, nil, nil, nil, nil
}

// pacedTick is the paced schedule's period: every tick, rate×pacedTick
// events fall due together. A sleep here lasts at least about a
// millisecond whatever it asks for, so a finer schedule would be fed in
// millisecond lumps anyway, and each event's latency would include up to
// a millisecond the generator alone added.
const pacedTick = 2 * time.Millisecond

// paced feeds a segment of the input at a fixed rate on a schedule set in
// advance, which does not slow when the program slows, and times each
// match from the due time of the event that completed it.
func (r *runner) paced(parent int) error {
	runtime.GC()
	t, err := r.deploy(parent)
	if err != nil {
		return err
	}
	events := r.in.paced
	perTick := int(r.w.rate * pacedTick.Seconds())
	due := func(i int) time.Duration { return time.Duration(i/perTick) * pacedTick }

	span := r.tr.begin("paced", parent)
	before := sample()
	start := r.resetSinks(span)
	var late time.Duration
	feedErr := error(nil)
	for i := 0; i < len(events) && feedErr == nil; {
		now := time.Since(start)
		j := min((int(now/pacedTick)+1)*perTick, len(events))
		if j <= i {
			time.Sleep(due(i) - now)
			continue
		}
		late = max(late, now-due(i))
		feedErr = t.feed(r.ctx, events[i:j], span)
		i = j
	}
	if feedErr == nil {
		feedErr = t.drain(r.ctx, span)
	}
	after := sample()
	r.tr.end(span)

	shards := r.checkPhase("paced", feedErr, r.in.pacedRef, t, uint64(len(events)))
	for qi, s := range r.sinks {
		if shards[qi] == nil {
			continue
		}
		for mi := range s.matches {
			idx := r.in.pacedIndex[shards[qi][mi]][s.matches[mi].DetectedAt]
			r.s.Latencies = append(r.s.Latencies, (s.at[mi]-due(idx)).Seconds()*1e3)
		}
	}
	r.s.PacedCPU = append(r.s.PacedCPU, (after.cpu-before.cpu).Seconds()*1e6/float64(len(events)))
	r.paces = append(r.paces, pacedResult{lateMS: late.Seconds() * 1e3, core: sumMetrics(t.metrics())})
	return r.shutdown(t, parent)
}

// resetSinks starts a phase clock now and returns it.
func (r *runner) resetSinks(span int) time.Time {
	start := time.Now()
	for _, s := range r.sinks {
		s.reset(start, span)
	}
	return start
}

// checkPhase counts one operation per query — feeding its stream,
// draining it, and checking its output against the reference — and
// returns each query's match-to-shard assignment (nil where it failed).
// On local runs it also checks that every fed event was either ingested
// or filtered.
func (r *runner) checkPhase(phase string, feedErr error, ref [][][]string, t target, fed uint64) [][]int {
	shards := make([][]int, len(r.sinks))
	ms := t.metrics()
	for qi, s := range r.sinks {
		r.s.Attempted++
		err := feedErr
		if err == nil {
			err = s.err
		}
		if err == nil {
			shards[qi], err = assignShards(s.matches, ref[qi])
		}
		if err == nil && ms != nil && ms[qi].EventsIngested+ms[qi].FilteredEvents != fed {
			err = fmt.Errorf("fed %d events, ingested %d + filtered %d", fed, ms[qi].EventsIngested, ms[qi].FilteredEvents)
		}
		if err != nil {
			r.s.Failed++
			shards[qi] = nil
			if len(r.s.Problems) < 5 {
				r.s.Problems = append(r.s.Problems, fmt.Sprintf("%s %s query %d: %v", r.w.name, phase, qi, err))
			}
		}
	}
	return shards
}

// withHeapPeak runs fn while sampling the live heap (as marked by the
// last GC) and returns its highest value above the level at the start:
// the heap the program grew beyond the benchmark's own inputs.
func (r *runner) withHeapPeak(fn func() error) (float64, error) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	base := s[0].Value.Uint64()
	peak := base
	stop := sampleLive(&peak)
	err := fn()
	stop()
	return float64(peak - base), err
}

// sampleLive records the highest live heap into peak until the returned
// stop function is called; stop is idempotent.
func sampleLive(peak *uint64) func() {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			atomicMax(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(done)
			<-exited
		}
	}
}

func atomicMax(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v <= old || atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

// heapGuard bounds the heap the benchmark lets the program reach. Some
// inputs make the program's memory grow without bound (see README.md); a
// run that crosses the guard stops without a result rather than taking
// the machine's memory.
const heapGuard = 2 << 30

// guardHeap checks the heap in use every few milliseconds for the rest of
// the process's life and exits with status 3 once it passes heapGuard.
func guardHeap() {
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		for range tick.C {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > heapGuard {
				fmt.Fprintf(os.Stderr, "perfbench: heap in use reached %d MiB, past the %d MiB guard; stopping\n", v>>20, heapGuard>>20)
				os.Exit(3)
			}
		}
	}()
}

// counters is a snapshot of process CPU time and the Go heap counters.
type counters struct {
	cpu                time.Duration
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPauseNS          uint64
}

func sample() counters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// sumMetrics folds per-query engine counters into one.
func sumMetrics(ms []spectre.Metrics) spectre.Metrics {
	var out spectre.Metrics
	for i := range ms {
		out.Merge(&ms[i])
	}
	return out
}

// medianOf is the median of f over xs, skipping items f rejects.
func medianOf[T any](xs []T, f func(T) (float64, bool)) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if v, ok := f(x); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
