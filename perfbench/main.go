// Command perfbench is the repository's end-to-end benchmark. It runs
// three workloads over the synthetic NYSE stream through the public API
// (a local Runtime, or a coordinator with two loopback workers), checks
// every output against the sequential reference engine, and reports
// end-to-end metrics from an untraced run or per-layer metrics from a
// traced one. See README.md in this directory.
//
//	go run . -workload q1-spec -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	spectre "github.com/spectrecep/spectre"
)

func main() {
	os.Exit(run())
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's outcome.
type result struct {
	workload          string
	attempted, failed int
	correct           bool
	metrics           []metric
}

func run() int {
	var (
		wname   = flag.String("workload", "all", "workload to run: q1-spec, fanout-3q, cluster-2w or all")
		seed    = flag.Int64("seed", 1, "seed of the generated input stream")
		seconds = flag.Int("seconds", 20, "measuring time per workload, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		outDir  = flag.String("out-dir", ".bench_build", "directory traced runs write their spans to")
		fact    = flag.String("fact", "", "reproduce a sizing fact instead: instances, paced, close, engine-heap or drift")
		part    = flag.Int("part", -1, "run only this part of an untraced run and print its raw samples (used by the run itself)")
	)
	flag.Parse()
	guardHeap()
	if *fact != "" {
		if err := reproduceFact(*fact); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	var selected []*workload
	if *wname == "all" {
		selected = workloads
	} else if w := findWorkload(*wname); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wname)
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d NumCPU=%d %s seed=%d seconds=%d trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *seed, *seconds, *trace)

	budget := time.Duration(*seconds) * time.Second
	if *part >= 0 {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "perfbench: -part needs one workload")
			return 2
		}
		w := selected[0]
		r, _, err := measure(w, *seed, budget/time.Duration(parts), *part, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", w.name, *part, err)
			return 1
		}
		b, err := json.Marshal(r.s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}

	var results []result
	for _, w := range selected {
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, budget, *outDir)
		} else {
			res, err = runParts(w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
	}
	printResults(results, len(selected) > 1)
	return 0
}

// measure builds the inputs for one process's part of a run and makes the
// part's passes.
func measure(w *workload, seed int64, budget time.Duration, part int, traced bool) (*runner, *inputs, error) {
	in, err := buildInputs(w, seed, part)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %d replay events, %d reference matches; %d in the paced segment of %d\n",
		w.name, part, len(in.replay), refCount(in.replayRef), refCount(in.pacedRef), len(in.paced))
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	r := newRunner(ctx, w, in, tr)
	if err := r.run(budget); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s part %d: throughput %.0f events/s; peak heap %.1f MiB; %d paced matches\n",
		w.name, part, r.s.Tput, r.s.HeapMiB, len(r.s.Latencies))
	return r, in, nil
}

// runParts runs an untraced measurement as the workload's parts, one
// child process after the other, and pools their samples.
func runParts(w *workload, seed int64, seconds int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var all samples
	for p := 0; p < parts; p++ {
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "0", "-part", strconv.Itoa(p))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return result{}, fmt.Errorf("part %d: %w", p, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var s samples
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			return result{}, fmt.Errorf("part %d: %w", p, err)
		}
		all.merge(&s)
	}
	report(w.name, &all)
	return result{
		workload:  w.name,
		attempted: all.Attempted,
		failed:    all.Failed,
		correct:   all.Failed == 0,
		metrics:   endToEnd(&all),
	}, nil
}

// report prints a run's problems and sample spread to standard error.
func report(name string, s *samples) {
	for _, p := range s.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	l := s.Latencies
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d replay passes; %d paced samples, ms at p5 p25 p50 p75 p95 p99 max: %.3f %.3f %.3f %.3f %.3f %.3f %.3f\n",
		name, len(s.Tput), len(l), quantile(l, 0.05), quantile(l, 0.25), quantile(l, 0.5), quantile(l, 0.75), quantile(l, 0.95), quantile(l, 0.99), quantile(l, 1))
	fmt.Fprintf(os.Stderr, "perfbench: %s: setup %.6f s; teardown %.6f s\n", name, s.Setup, s.Teardown)
}

// runTraced runs the workload in this process with tracing on and reports
// the per-layer metrics; the spans go to a file under outDir.
func runTraced(w *workload, seed int64, budget time.Duration, outDir string) (result, error) {
	r, in, err := measure(w, seed, budget, 0, true)
	if err != nil {
		return result{}, err
	}
	report(w.name, &r.s)
	lt, err := measureLayers(in, seed, r.tr)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := r.tr.write(path); err != nil {
		return result{}, err
	}
	for _, l := range r.tr.selfTimes() {
		fmt.Fprintf(os.Stderr, "perfbench: span %-18s n=%-7d total=%.3fms self=%.3fms\n",
			l.Name, l.Count, float64(l.TotalNS)/1e6, float64(l.SelfNS)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: traced throughput %.0f events/s; spans written to %s\n", w.name, median(r.s.Tput), path)
	return result{
		workload:  w.name,
		attempted: r.s.Attempted,
		failed:    r.s.Failed,
		correct:   r.s.Failed == 0,
		metrics:   perLayer(r, in, lt),
	}, nil
}

// each returns a replay result's value; always present.
func each(f func(replayResult) float64) func(replayResult) (float64, bool) {
	return func(rr replayResult) (float64, bool) { return f(rr), true }
}

func endToEnd(s *samples) []metric {
	return []metric{
		{"throughput_eps", median(s.Tput), "events/s"},
		{"cpu_us_per_event", median(s.CPU), "us"},
		{"alloc_bytes_per_event", median(s.AllocBytes), "B"},
		{"allocs_per_event", median(s.Allocs), "count"},
		{"peak_heap_mb", median(s.HeapMiB), "MiB"},
		{"detect_p50_ms", quantile(s.Latencies, 0.50), "ms"},
		{"detect_p99_ms", quantile(s.Latencies, 0.99), "ms"},
		{"paced_cpu_us_per_event", median(s.PacedCPU), "us"},
		{"setup_s", median(s.Setup), "s"},
		// The lower quartile: see teardown_s in README.md.
		{"teardown_s", quantile(s.Teardown, 0.25), "s"},
	}
}

func perLayer(r *runner, in *inputs, lt layerTimings) []metric {
	n := float64(len(in.replay))
	rp := r.replays
	// Engine counters exist on local runs only; ratios skip empty ones.
	core := func(f func(m spectre.Metrics) float64) func(replayResult) (float64, bool) {
		return func(x replayResult) (float64, bool) { return f(x.core), x.core.EventsIngested > 0 }
	}
	paced := func(f func(m spectre.Metrics) float64) float64 {
		return medianOf(r.paces, func(x pacedResult) (float64, bool) { return f(x.core), x.core.EventsIngested > 0 })
	}
	link := func(f func(l linkStats) float64) float64 {
		return medianOf(rp, func(x replayResult) (float64, bool) { return f(x.links), x.links.shipped+x.links.deduped > 0 })
	}
	return []metric{
		{"spectre.feed_ns_per_event", medianOf(rp, each(func(x replayResult) float64 { return x.feedNS })), "ns"},
		{"spectre.feed_blocked_share", medianOf(rp, each(func(x replayResult) float64 { return x.feedShare })), "ratio"},
		{"plan.admit_ns_per_event", lt.admitNS, "ns"},
		{"plan.kept_share", lt.keptShare, "ratio"},
		{"shard.route_ns_per_event", lt.routeNS, "ns"},
		{"shard.skew", lt.skew, "ratio"},
		{"seqengine.ns_per_event", float64(in.seqTime.Nanoseconds()) / n, "ns"},
		{"deptree.contains_ns", lt.containsNS, "ns"},
		{"core.processed_per_event", medianOf(rp, core(func(m spectre.Metrics) float64 {
			return float64(m.EventsProcessed) / float64(m.EventsIngested)
		})), "count"},
		{"core.versions_per_window", medianOf(rp, core(func(m spectre.Metrics) float64 {
			return float64(m.VersionsCreated) / float64(max(m.WindowsOpened, 1))
		})), "count"},
		{"core.gate_reprocessed", medianOf(rp, core(func(m spectre.Metrics) float64 {
			return float64(m.GateReprocessed) * 1e6 / float64(m.EventsIngested)
		})), "count/Mevent"},
		{"core.max_tree_size", medianOf(rp, core(func(m spectre.Metrics) float64 { return float64(m.MaxTreeSize) })), "count"},
		{"core.cycles_per_kevent", paced(func(m spectre.Metrics) float64 {
			return float64(m.Cycles) * 1e3 / float64(m.EventsIngested)
		}), "count"},
		{"sched.slot_utilization", paced(func(m spectre.Metrics) float64 { return m.SlotUtilization() }), "ratio"},
		{"sched.cur_slots", paced(func(m spectre.Metrics) float64 { return float64(m.CurSlots) }), "count"},
		{"core.emit_lag_p99_ms", paced(func(m spectre.Metrics) float64 { return m.EmitLagP99 * 1e3 }), "ms"},
		{"durable.append_ns_per_event", lt.appendNS, "ns"},
		{"transport.frame_ns", lt.frameNS, "ns"},
		{"cluster.frames_per_kevent", link(func(l linkStats) float64 { return float64(l.frames) * 1e3 / n }), "count"},
		{"cluster.events_shipped_per_event", link(func(l linkStats) float64 { return float64(l.shipped) / n }), "count"},
		{"cluster.dedup_share", link(func(l linkStats) float64 {
			return float64(l.deduped) / float64(l.shipped+l.deduped)
		}), "ratio"},
		{"cluster.recv_bytes_per_event", link(func(l linkStats) float64 { return float64(l.workerRecv) / n }), "B"},
		{"cluster.wire_bytes_per_event", link(func(l linkStats) float64 { return float64(l.sent+l.recv) / n }), "B"},
		{"go.gc_cycles", medianOf(rp, each(func(x replayResult) float64 { return x.gcCycles })), "count"},
		{"go.gc_pause_ms", medianOf(rp, each(func(x replayResult) float64 { return x.gcPauseMS })), "ms"},
		{"bench.generator_late_ms", medianOf(r.paces, func(x pacedResult) (float64, bool) { return x.lateMS, true }), "ms"},
		{"bench.detect_p95_ms", quantile(r.s.Latencies, 0.95), "ms"},
	}
}

// printResults prints one line per metric, "workload/metric value unit",
// then the machine-readable summary as the last line. With more than one
// workload the summary's metric names carry the workload prefix.
func printResults(results []result, prefixed bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		fmt.Printf("%s/operations attempted=%d failed=%d\n", res.workload, res.attempted, res.failed)
		for _, m := range res.metrics {
			fmt.Printf("%s/%s %s %s\n", res.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
			name := m.name
			if prefixed {
				name = res.workload + "/" + name
			}
			summary.Metrics[name] = value{m.value, m.unit}
		}
		summary.Correct = summary.Correct && res.correct
		summary.Attempted += res.attempted
		summary.Failed += res.failed
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}
