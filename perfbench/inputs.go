package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/shard"
)

// inputs are a workload's generated events and the sequential reference
// outputs they are checked against. Everything here is built before any
// timed section.
type inputs struct {
	reg     *spectre.Registry
	events  []spectre.Event
	replay  []spectre.Event  // the replay passes' prefix of events
	paced   []spectre.Event  // the paced phase's segment of events
	queries []*spectre.Query // parsed against reg, for the references
	router  *shard.Router

	// Reference match keys per query and shard, in the sequential
	// engine's order: over the replay prefix and over the paced segment.
	replayRef [][][]string
	pacedRef  [][][]string
	cycleRef  [][][]string // over the first cycleEvents events
	// pacedIndex[s][p] is the segment index of shard s's p-th paced event:
	// matches carry per-shard positions, and this maps them back to the
	// event's due time.
	pacedIndex [][]int
	// consumed holds each replay reference match's consumed positions.
	consumed [][]uint64

	seqTime time.Duration // RunSequential over the replay prefix, all queries
}

// buildInputs generates the workload's input from seed. Part i of a run
// made of several processes paces its own segment of the input, spread
// evenly over it, so the run's latencies cover more of the stream.
func buildInputs(w *workload, seed int64, part int) (*inputs, error) {
	in := &inputs{reg: spectre.NewRegistry()}
	in.events = generate(in.reg, w.data, seed)
	if w.pacedEvents > len(in.events) {
		return nil, fmt.Errorf("%s: paced phase wants %d events, input has %d", w.name, w.pacedEvents, len(in.events))
	}
	for _, qs := range w.queries {
		q, err := qs.compile(in.reg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		in.queries = append(in.queries, q)
	}
	in.router = shard.NewRouter(w.shards, shard.ByType())

	in.replay = in.events
	if w.replayEvents > 0 {
		in.replay = in.events[:w.replayEvents]
	}
	var err error
	if in.replayRef, in.consumed, in.seqTime, err = in.reference(in.replay); err != nil {
		return nil, err
	}
	if in.cycleRef, _, _, err = in.reference(in.events[:cycleEvents]); err != nil {
		return nil, err
	}
	from := part * (len(in.events) - w.pacedEvents) / (parts - 1)
	in.paced = in.events[from : from+w.pacedEvents]
	if in.pacedRef, _, _, err = in.reference(in.paced); err != nil {
		return nil, err
	}
	in.pacedIndex = make([][]int, w.shards)
	for i := range in.paced {
		s := in.router.Route(&in.paced[i])
		in.pacedIndex[s] = append(in.pacedIndex[s], i)
	}
	return in, nil
}

// sessionMinutes is the length of one generated trading session.
const sessionMinutes = 25

// generate builds the input as back-to-back trading sessions of
// sessionMinutes each, every one from GenerateNYSE with its own seed
// derived from seed. The generator's market regime is a bounded random
// walk that starts neutral: over one long session it drifts far enough
// that the share of rising quotes, and with it the work the queries do,
// differs by a quarter from seed to seed; short sessions keep that share
// within a few percent, so seeds change the events but not the load.
func generate(reg *spectre.Registry, cfg spectre.NYSEConfig, seed int64) []spectre.Event {
	sessions := max(1, cfg.Minutes/sessionMinutes)
	events := make([]spectre.Event, 0, cfg.Symbols*cfg.Minutes)
	for s := 0; s < sessions; s++ {
		c := cfg
		c.Minutes = sessionMinutes
		c.Seed = seed*1_000_003 + int64(s)
		shift := int64(s*sessionMinutes) * int64(time.Minute)
		for _, ev := range spectre.GenerateNYSE(reg, c) {
			ev.TS += shift
			events = append(events, ev)
		}
	}
	packFields(events)
	return events
}

// packFields moves every event's payload into one shared array. The
// generator allocates each event's fields on its own, and half a million
// small objects held for the whole run would make every garbage
// collection of the program under test mark them too: the collections
// that overlap the paced phase would then stretch its latency tail with
// work that belongs to the benchmark.
func packFields(events []spectre.Event) {
	n := 0
	for i := range events {
		n += len(events[i].Fields)
	}
	all := make([]float64, 0, n)
	for i := range events {
		lo := len(all)
		all = append(all, events[i].Fields...)
		events[i].Fields = all[lo:len(all):len(all)]
	}
}

// reference runs the sequential engine over each query's per-partition
// substreams. Split copies the events, so the engine's in-place
// renumbering (Seq = position) never touches the input. It also returns
// every match's consumed positions and the time spent inside
// RunSequential.
func (in *inputs) reference(events []spectre.Event) ([][][]string, [][]uint64, time.Duration, error) {
	subs := in.router.Split(events)
	out := make([][][]string, len(in.queries))
	var consumed [][]uint64
	var spent time.Duration
	for qi, q := range in.queries {
		out[qi] = make([][]string, len(subs))
		for s, sub := range subs {
			start := time.Now()
			matches, _, err := spectre.RunSequential(q, sub)
			spent += time.Since(start)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("reference %s shard %d: %w", q.Name, s, err)
			}
			keys := make([]string, len(matches))
			for i := range matches {
				keys[i] = matchKey(&matches[i])
				consumed = append(consumed, matches[i].Consumed)
			}
			out[qi][s] = keys
		}
	}
	return out, consumed, spent, nil
}

// refCount is the number of reference matches over all queries and shards.
func refCount(ref [][][]string) int {
	n := 0
	for _, q := range ref {
		for _, s := range q {
			n += len(s)
		}
	}
	return n
}

// matchKey renders a match canonically: every field the sequential
// engine defines, so equal keys mean byte-identical matches.
func matchKey(c *spectre.ComplexEvent) string {
	var b strings.Builder
	b.WriteString(c.Query)
	b.WriteString("|w")
	b.WriteString(strconv.FormatUint(c.WindowID, 10))
	b.WriteString("|d")
	b.WriteString(strconv.FormatUint(c.DetectedAt, 10))
	for i, seqs := range [][]uint64{c.Constituents, c.Consumed} {
		b.WriteString([]string{"|c", "|x"}[i])
		for j, s := range seqs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(s, 10))
		}
	}
	return b.String()
}

// assignShards checks one query's delivered matches against its
// per-shard reference and returns the shard each match came from. Every
// shard's matches must appear in exactly the reference order, and every
// reference match must appear: together that is multiset equality plus
// per-shard order. With one shard it is byte-identical ordered output.
func assignShards(got []spectre.ComplexEvent, ref [][]string) ([]int, error) {
	next := make([]int, len(ref))
	shards := make([]int, len(got))
	for i := range got {
		k := matchKey(&got[i])
		shards[i] = -1
		for s := range ref {
			if next[s] < len(ref[s]) && ref[s][next[s]] == k {
				shards[i] = s
				next[s]++
				break
			}
		}
		if shards[i] < 0 {
			return nil, fmt.Errorf("match %d (%s) is not the next reference match of any shard", i, k)
		}
	}
	for s := range ref {
		if next[s] != len(ref[s]) {
			return nil, fmt.Errorf("shard %d delivered %d of %d reference matches", s, next[s], len(ref[s]))
		}
	}
	return shards, nil
}
