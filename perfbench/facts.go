package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// The sizing facts the README cites, each reproducible with
// `-fact <name>`. They run on the q1-spec stream at the size the facts
// were first measured at: NYSE 500 symbols × 2000 minutes, seed 42
// (1M events, 1591 Q1 matches).
var factData = spectre.NYSEConfig{Symbols: 500, Leaders: 16, Minutes: 2000, Seed: 42}

func reproduceFact(name string) error {
	switch name {
	case "instances":
		return factInstances()
	case "paced":
		return factPaced()
	case "close":
		return factClose()
	case "engine-heap":
		return factEngineHeap()
	case "drift":
		return factDrift()
	}
	return fmt.Errorf("unknown fact %q (instances, paced, close, engine-heap, drift)", name)
}

// replayOnce submits q to a fresh Runtime, feeds events in 1024-event
// batches and drains. It returns the throughput to the last match, the
// match count and the highest live heap seen.
func replayOnce(reg *spectre.Registry, q *spectre.Query, events []spectre.Event, opts ...spectre.Option) (float64, int, uint64, error) {
	var peak uint64
	stop := sampleLive(&peak)
	defer stop()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer rt.Close()
	var n int
	var last time.Time
	h, err := rt.Submit(context.Background(), q, spectre.SinkFunc(func(spectre.ComplexEvent) {
		n++
		last = time.Now()
	}), opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for lo := 0; lo < len(events); lo += 1024 {
		if err := h.FeedBatch(context.Background(), events[lo:min(lo+1024, len(events))]); err != nil {
			return 0, 0, 0, err
		}
	}
	h.Drain()
	stop()
	return float64(len(events)) / last.Sub(start).Seconds(), n, peak, nil
}

func factQ1() (*spectre.Registry, *spectre.Query, []spectre.Event, error) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, factData)
	q, err := q1.compile(reg)
	return reg, q, events, err
}

// factInstances: Q1 throughput by instance count against RunSequential.
func factInstances() error {
	reg, q, events, err := factQ1()
	if err != nil {
		return err
	}
	fmt.Printf("Q1 over %d events (NYSE 500x2000, seed 42), GOMAXPROCS=%d\n", len(events), runtime.GOMAXPROCS(0))
	configs := []struct {
		label string
		opts  []spectre.Option
	}{
		{"default options (k=4)", nil},
		{"WithInstances(1)", []spectre.Option{spectre.WithInstances(1)}},
		{"WithInstances(2)", []spectre.Option{spectre.WithInstances(2)}},
	}
	for _, c := range configs {
		for rep := 0; rep < 3; rep++ {
			runtime.GC()
			evps, n, peak, err := replayOnce(reg, q, events, c.opts...)
			if err != nil {
				return err
			}
			fmt.Printf("%-22s run %d: %9.0f events/s, %d matches, peak live heap %d MiB\n", c.label, rep, evps, n, peak>>20)
		}
	}
	for rep := 0; rep < 3; rep++ {
		in := append([]spectre.Event(nil), events...)
		start := time.Now()
		out, _, err := spectre.RunSequential(q, in)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s run %d: %9.0f events/s, %d matches\n", "RunSequential", rep, float64(len(in))/time.Since(start).Seconds(), len(out))
	}
	return nil
}

// factPaced: Q1's paced detection latency at 50k and 20k events/s, three
// runs each, on the q1-spec workload's seed-42 input.
func factPaced() error {
	base := findWorkload("q1-spec")
	for _, rate := range []float64{50_000, 20_000} {
		for rep := 0; rep < 3; rep++ {
			w := *base
			w.rate = rate
			in, err := buildInputs(&w, 42, 0)
			if err != nil {
				return err
			}
			r := newRunner(context.Background(), &w, in, nil)
			if err := r.paced(0); err != nil {
				return err
			}
			fmt.Printf("Q1 paced at %.0f events/s, run %d: %d matches, detect p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, %.1f us CPU/event, generator late %.2f ms, failed %d\n",
				rate, rep, len(r.s.Latencies), quantile(r.s.Latencies, 0.5), quantile(r.s.Latencies, 0.95),
				quantile(r.s.Latencies, 0.99), r.s.PacedCPU[0], r.paces[0].lateMS, r.s.Failed)
		}
	}
	return nil
}

// factClose: Cluster.Close waits for each link's heartbeat goroutine to
// see its next tick, so it takes about one heartbeat (2 s by default) on
// a freshly joined cluster.
func factClose() error {
	reg := spectre.NewRegistry()
	ctx := context.Background()
	for rep := 0; rep < 3; rep++ {
		cl, err := spectre.ListenCluster("127.0.0.1:0", reg, spectre.ClusterOptions{MinWorkers: clusterWorkers})
		if err != nil {
			return err
		}
		var workers []*spectre.ClusterWorker
		for i := 0; i < clusterWorkers; i++ {
			wk, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), cl.Addr().String(), spectre.ClusterWorkerOptions{})
			if err != nil {
				_ = cl.Close()
				return err
			}
			workers = append(workers, wk)
		}
		start := time.Now()
		err = cl.Close()
		took := time.Since(start)
		for _, wk := range workers {
			wk.Close()
			_ = wk.Wait()
		}
		if err != nil {
			return err
		}
		fmt.Printf("Cluster.Close with %d idle workers, run %d: %.3f s\n", clusterWorkers, rep, took.Seconds())
	}
	return nil
}

// engineHeapCap is where factEngineHeap stops the Engine. The Engine has
// been seen past 3 GiB on this input and OOM-killed on an 8 GB machine;
// stopping at the cap shows the growth without risking that.
const engineHeapCap = 512 << 20

// factEngineHeap: NewEngine(q1, WithInstances(1)) over the 1M-event input
// against the Runtime path on the same input.
func factEngineHeap() error {
	reg, q, events, err := factQ1()
	if err != nil {
		return err
	}
	runtime.GC()
	_, n, peak, err := replayOnce(reg, q, events, spectre.WithInstances(1))
	if err != nil {
		return err
	}
	fmt.Printf("Runtime.Submit WithInstances(1): %d matches, peak live heap %d MiB\n", n, peak>>20)

	for rep := 0; rep < 4; rep++ {
		if err := engineRun(q, events, rep); err != nil {
			return err
		}
	}
	return nil
}

// engineRun runs the Engine once, stopping it at engineHeapCap.
func engineRun(q *spectre.Query, events []spectre.Event, rep int) error {
	runtime.GC()
	eng, err := spectre.NewEngine(q, spectre.WithInstances(1))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hit atomic.Bool
	var seen uint64
	done := make(chan struct{})
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			atomicMax(&seen, s[0].Value.Uint64())
			if s[0].Value.Uint64() > engineHeapCap && hit.CompareAndSwap(false, true) {
				cancel()
			}
		}
	}()
	matches := 0
	start := time.Now()
	err = eng.Run(ctx, spectre.FromSlice(events), spectre.SinkFunc(func(spectre.ComplexEvent) { matches++ }))
	close(done)
	m := eng.Metrics()
	if hit.Load() {
		fmt.Printf("NewEngine WithInstances(1), run %d: heap in use passed %d MiB after %.2f s (%d of %d events ingested, %d matches); stopped there, highest seen %d MiB\n",
			rep, engineHeapCap>>20, time.Since(start).Seconds(), m.EventsIngested, len(events), matches, atomic.LoadUint64(&seen)>>20)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("NewEngine WithInstances(1), run %d: finished under %d MiB (%d matches), highest seen %d MiB\n",
		rep, engineHeapCap>>20, matches, atomic.LoadUint64(&seen)>>20)
	return nil
}

// factDrift: five back-to-back Runtime passes of Q1 in one process, with
// each pass's peak live heap and the process's resident set.
func factDrift() error {
	reg, q, events, err := factQ1()
	if err != nil {
		return err
	}
	for pass := 0; pass < 5; pass++ {
		runtime.GC()
		evps, _, peak, err := replayOnce(reg, q, events)
		if err != nil {
			return err
		}
		fmt.Printf("pass %d: %.0f events/s, peak live heap %d MiB, %s\n", pass, evps, peak>>20, procMemory())
	}
	return nil
}

// procMemory reads the process's peak and current resident set.
func procMemory() string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "resident set unknown"
	}
	defer f.Close()
	var parts []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") || strings.HasPrefix(line, "VmRSS:") {
			parts = append(parts, strings.Join(strings.Fields(line), " "))
		}
	}
	return strings.Join(parts, ", ")
}
