package transport

import (
	"fmt"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/trace"
)

// AggregatorNode is an interior node of the aggregation tree: one process
// that multiplexes a contiguous shard of virtual devices, runs the round
// fan-out over them in-process, and streams a single PartialSum —
// Σ D_n·w_n over the shard's reporting devices plus the shard's round
// weight Σ D_n — up to the tree coordinator. The root therefore holds
// O(model + shards) state no matter how many devices the tree drives.
//
// Device RNG streams are derived exactly as a flat run derives them
// (engine.NewDevice with the GLOBAL device ID), and the shard's partial
// sum is accumulated with raw sample counts in ascending device order —
// the same operation sequence as a flat ShardedMean over the same shard
// map — so a tree run is bit-identical to the flat reference for the same
// seed. Probabilistic activation (RoundRequest.ActivateProb) is evaluated
// locally per device from the pure (seed, round, id) hash, no
// coordination needed.
//
// The node speaks only CodecFloat64: quantizing a partial sum would break
// the exactness the tree's conformance story rests on. The connection loop
// (dial, rejoin, chaos enforcement keyed by shard ID) is the shared peer's;
// AggregatorNode adds the AggHello and the shard fan-out.
type AggregatorNode struct {
	peer
	lo      int
	devices []*engine.Device // devices[i].ID == lo+i
	counts  []float64        // raw per-device sample counts D_n, by local index
	samples int64            // Σ counts
	seed    int64

	partial []float64 // Σ D_n·w_n accumulator, sized on first round
}

// NewAggregatorNode connects to the tree coordinator at addr and announces
// shard shardID owning devices [loDevice, loDevice+len(shards)) — shards[i]
// is the data of global device loDevice+i. The same call is the rejoin
// path after a connection loss (see SetRejoin).
func NewAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64) (*AggregatorNode, error) {
	return newAggregatorNode(addr, shardID, loDevice, shards, m, seed, nil)
}

// NewChaosAggregatorNode is NewAggregatorNode with a fault schedule keyed
// by shard ID: before each round's fan-out the node looks up
// ActionFor(shardID, round) and enforces it on the wire — killing the
// connection (Crash/Partition), failing once (Flake), or delaying its
// reply (Delay) — always BEFORE any device solves, so the shard's device
// RNG streams stay untouched that round exactly like a scripted dropout
// of the shard. Chaos nodes default to rejoining after injected kills
// (40 attempts, 25ms apart); tune with SetRejoin.
func NewChaosAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	return newAggregatorNode(addr, shardID, loDevice, shards, m, seed, sched)
}

func newAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("transport: aggregator shard %d has no devices", shardID)
	}
	n := &AggregatorNode{
		lo:      loDevice,
		devices: make([]*engine.Device, len(shards)),
		counts:  make([]float64, len(shards)),
		seed:    seed,
	}
	for i, shard := range shards {
		n.devices[i] = engine.NewDevice(loDevice+i, shard, m, seed)
		n.counts[i] = float64(shard.N())
		n.samples += int64(shard.N())
	}
	n.init(n, shardID, addr, sched)
	if err := n.dial(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *AggregatorNode) hello(dst []byte) []byte {
	return marshalAggHello(dst, &AggHello{ShardID: n.id, LoDevice: n.lo, NumDevices: len(n.devices), NumSamples: n.samples})
}

func (n *AggregatorNode) fail(dst []byte, round int, msg string) []byte {
	return marshalPartialSum(dst, &PartialSum{ShardID: n.id, Round: round, Err: msg})
}

func (n *AggregatorNode) solve(dst []byte, req *RoundRequest, _ chaos.Event) []byte {
	return marshalPartialSum(dst, n.solveRound(req))
}

// solveRound runs the shard fan-out for one request and builds the
// PartialSum reply. Accumulation is in ascending device order with raw
// sample counts — the canonical sharded arithmetic the flat ShardedMean
// reference and the root's PartialMean share.
func (n *AggregatorNode) solveRound(req *RoundRequest) *PartialSum {
	ps := &PartialSum{ShardID: n.id, Round: req.Round}
	if req.Codec != CodecFloat64 {
		ps.Err = "aggregation tree is float64-only, request asked for codec " + req.Codec.String()
		return ps
	}
	anchor := req.Anchor
	if cap(n.partial) < len(anchor) {
		n.partial = make([]float64, len(anchor))
	}
	n.partial = n.partial[:len(anchor)]
	mathx.Zero(n.partial)

	traceOn := n.tracing(req)
	var solve trace.WSpan
	if traceOn {
		n.rec.Rebase()
		solve = n.rec.Start("shard-solve", 0)
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				*ps = PartialSum{ShardID: n.id, Round: req.Round, Err: toErrString(r)}
			}
		}()
		for i, dev := range n.devices {
			if req.ActivateProb > 0 && !engine.Activated(n.seed, req.Round, n.lo+i, req.ActivateProb) {
				continue
			}
			dev.BeginRound(req.Round)
			local := dev.RunRound(anchor, req.Local)
			mathx.Axpy(n.counts[i], local, n.partial)
			ps.Weight += n.counts[i]
			ps.Devices++
		}
	}()
	ps.SolveSeconds = time.Since(start).Seconds()
	if traceOn {
		solve.End()
		ps.Spans = n.rec.Take()
	}
	if ps.Err != "" {
		return ps
	}
	for _, dev := range n.devices {
		ps.GradEvals += dev.GradEvals()
	}
	ps.Sum = n.partial
	return ps
}
