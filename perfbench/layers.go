package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/transport"
)

// layerTimings times single layers from outside, around calls into their
// exported functions, over the workload's own inputs. Each result is
// also recorded as a span under a "layers" root.
type layerTimings struct {
	admitNS, keptShare float64 // plan.Admit over the stream
	routeNS, skew      float64 // shard.Router.Route over the stream
	containsNS         float64 // deptree.CG.Contains, probed in stream order
	appendNS           float64 // durable MemStore Append+Sync per event
	frameNS            float64 // transport WriteFrame+ReadFrame round trip
}

func measureLayers(in *inputs, seed int64, tr *tracer) (layerTimings, error) {
	var lt layerTimings
	root := tr.begin("layers", 0)
	defer tr.end(root)
	n := len(in.replay)

	// Plan intake filter: only queries whose plan activates it run Admit
	// at intake; the others keep every event.
	id := tr.begin("plan.Admit", root)
	var admitted, probed int
	var spent time.Duration
	for _, q := range in.queries {
		p := plan.New(q, plan.Options{})
		if !p.IntakeActive() {
			continue
		}
		start := time.Now()
		for i := range in.replay {
			if p.Admit(&in.replay[i]) {
				admitted++
			}
		}
		spent += time.Since(start)
		probed += n
	}
	tr.end(id)
	lt.keptShare = 1
	if probed > 0 {
		lt.admitNS = float64(spent.Nanoseconds()) / float64(probed)
		lt.keptShare = float64(admitted) / float64(probed)
	}

	id = tr.begin("shard.Route", root)
	counts := make([]int, in.router.Shards())
	start := time.Now()
	for i := range in.replay {
		counts[in.router.Route(&in.replay[i])]++
	}
	lt.routeNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	tr.end(id)
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	lt.skew = float64(most) / (float64(n) / float64(len(counts)))

	id = tr.begin("deptree.Contains", root)
	lt.containsNS = containsCost(in)
	tr.end(id)

	id = tr.begin("durable.Append", root)
	var err error
	if lt.appendNS, err = appendCost(in); err != nil {
		return lt, err
	}
	tr.end(id)

	id = tr.begin("transport.Frame", root)
	if lt.frameNS, err = frameCost(seed); err != nil {
		return lt, err
	}
	tr.end(id)
	return lt, nil
}

// containsCost builds one consumption group per reference match from its
// consumed events (NewCG, Add, Publish) and probes every group with each
// event position its consumed range spans, in stream order, as dependent
// window versions do when they check whether an event is suppressed. It
// returns the mean cost of one Contains call.
func containsCost(in *inputs) float64 {
	type probe struct {
		cg  *deptree.CG
		seq uint64
	}
	var probes []probe
	for i, consumed := range in.consumed {
		if len(consumed) == 0 {
			continue
		}
		cg := deptree.NewCG(uint64(i+1), nil, 0, 0)
		for _, seq := range consumed {
			cg.Add(seq)
		}
		cg.Publish()
		for seq := consumed[0]; seq <= consumed[len(consumed)-1]; seq++ {
			probes = append(probes, probe{cg, seq})
		}
	}
	if len(probes) == 0 {
		return 0
	}
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].seq < probes[j].seq })
	hits := 0
	start := time.Now()
	for _, p := range probes {
		if p.cg.Contains(p.seq) {
			hits++
		}
	}
	spent := time.Since(start)
	if hits == 0 {
		return 0 // every group holds its first seq; no hit means a broken probe
	}
	return float64(spent.Nanoseconds()) / float64(len(probes))
}

// appendCost appends the workload's replay events to an in-memory WAL
// shard log, syncing after each record, and returns the cost per event.
func appendCost(in *inputs) (float64, error) {
	st := durable.NewMemStore()
	defer st.Close()
	log, err := st.OpenShard("perfbench", 0)
	if err != nil {
		return 0, err
	}
	if _, err := log.Load(in.reg); err != nil {
		return 0, err
	}
	const record = 1024 // events per record: the runtime's ingest batch
	start := time.Now()
	for lo := 0; lo < len(in.replay); lo += record {
		rec := &durable.Record{Kind: durable.KindEvents, Events: in.replay[lo:min(lo+record, len(in.replay))]}
		if err := log.Append(rec); err != nil {
			return 0, fmt.Errorf("wal append: %w", err)
		}
		if err := log.Sync(); err != nil {
			return 0, fmt.Errorf("wal sync: %w", err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(in.replay)), nil
}

// frameBody is the frame payload size of the round trip: the cluster's
// default link batch of 256 events at 16 bytes each.
const frameBody = 256 * 16

// frameCost writes and reads back frames of a link batch's size through
// an in-memory buffer and returns the cost of one round trip.
func frameCost(seed int64) (float64, error) {
	body := make([]byte, frameBody)
	rand.New(rand.NewSource(seed)).Read(body)
	var buf bytes.Buffer
	var rbuf []byte
	const rounds = 20000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := transport.WriteFrame(&buf, 1, body); err != nil {
			return 0, err
		}
		_, got, err := transport.ReadFrame(&buf, rbuf)
		if err != nil {
			return 0, err
		}
		rbuf = got[:cap(got)]
	}
	return float64(time.Since(start).Nanoseconds()) / rounds, nil
}
