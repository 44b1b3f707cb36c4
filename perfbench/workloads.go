package main

import (
	"fmt"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/queries"
)

// workload is one set of inputs and queries the benchmark runs. Every
// workload feeds the synthetic NYSE quote stream; the seed comes from
// the command line.
type workload struct {
	name    string
	data    spectre.NYSEConfig // Seed is filled in from -seed
	queries []querySpec
	shards  int  // PARTITION BY TYPE shard count; 1 when unpartitioned
	cluster bool // run on a coordinator with two loopback workers

	// replayEvents is the length of the input prefix each replay pass
	// feeds (0: the whole input).
	replayEvents int

	// The paced phase feeds pacedEvents events of the input at rate
	// events/s on a schedule fixed in advance.
	pacedEvents int
	rate        float64

	// cycles short lifecycle cycles run first, and cyclesPerPass more
	// before every measured replay pass.
	cycles, cyclesPerPass int
	// warmup runs one unmeasured replay pass before the measured ones.
	warmup bool
}

const (
	// cycleEvents is the stream length of a lifecycle cycle.
	cycleEvents = 4096
	// batch is the replay FeedBatch size, in events.
	batch = 1024
	// parts is how many processes an untraced run is split into, one
	// after the other, each with its share of the time budget.
	// Speculative execution settles into a different speed in each
	// process; pooling the passes of several processes makes a run's
	// medians repeat.
	parts = 2
)

// pacedDuration is how long one paced phase's schedule lasts.
func (w *workload) pacedDuration() time.Duration {
	return time.Duration(float64(w.pacedEvents) / w.rate * float64(time.Second))
}

// querySpec is one query of a workload, as DSL text or as a builder.
type querySpec struct {
	text  string
	build func(*spectre.Registry) (*spectre.Query, error)
}

// compile parses or builds the query against reg.
func (qs querySpec) compile(reg *spectre.Registry) (*spectre.Query, error) {
	if qs.build != nil {
		return qs.build(reg)
	}
	return spectre.ParseQuery(qs.text, reg)
}

// q1 is the paper's Q1 (Figure 9) from the repository's query builders:
// a rising quote of one of the 16 blue-chip leaders followed by the
// first q=10 rising quotes within ws=1000 events, every constituent
// consumed.
var q1 = querySpec{build: func(reg *spectre.Registry) (*spectre.Query, error) {
	return queries.Q1(reg, queries.Q1Config{Q: 10, WindowSize: 1000, Leaders: 16})
}}

// fanoutTexts are three plan-filterable queries over one stream: every
// step requires a rising quote, so the intake filter drops falling and
// flat quotes (about half the stream) before they reach a shard queue;
// the windows differ so the queries stay distinct.
func fanoutTexts() []querySpec {
	var qs []querySpec
	for _, win := range []int{60, 120, 180} {
		qs = append(qs, querySpec{text: fmt.Sprintf(`QUERY rise%d
PATTERN (A B C)
DEFINE A AS (A.symbol IN ('BLUE00','BLUE01') AND A.close > A.open),
       B AS B.close > B.open,
       C AS C.close > C.open
WITHIN %d EVENTS FROM A
CONSUME ALL
PARTITION BY TYPE SHARDS 4
`, win, win)})
	}
	return qs
}

// workloads are the benchmark's three workloads; README.md says why each
// was chosen and which layers it exercises.
var workloads = []*workload{
	{
		// Speculation does the work: one unpartitioned Q1 stream.
		name:          "q1-spec",
		data:          spectre.NYSEConfig{Symbols: 500, Leaders: 16, Minutes: 2000},
		queries:       []querySpec{q1},
		shards:        1,
		replayEvents:  250_000,
		pacedEvents:   300_000,
		rate:          30_000,
		cyclesPerPass: 12,
	},
	{
		// Intake does the work: three filterable partitioned queries.
		name:          "fanout-3q",
		data:          spectre.NYSEConfig{Symbols: 200, Leaders: 4, Minutes: 1000},
		queries:       fanoutTexts(),
		shards:        4,
		pacedEvents:   100_000,
		rate:          20_000,
		cyclesPerPass: 1,
		warmup:        true,
	},
	{
		// The same queries distributed over two loopback workers.
		name:        "cluster-2w",
		data:        spectre.NYSEConfig{Symbols: 200, Leaders: 4, Minutes: 2500},
		queries:     fanoutTexts(),
		shards:      4,
		cluster:     true,
		pacedEvents: 150_000,
		rate:        50_000,
		cycles:      1,
		warmup:      true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
