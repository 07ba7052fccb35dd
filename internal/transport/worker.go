package transport

import (
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/trace"
)

// Worker is the device side of the distributed runtime: it connects to a
// coordinator, announces its shard size, and serves rounds until told to
// stop. Its RNG stream derivation matches engine.NewDevice, so a
// distributed run is bit-identical to the in-process simulator with the
// same seed. The connection loop (dial, rejoin, chaos enforcement) is the
// shared peer's; Worker adds the Hello and the single-device solve.
type Worker struct {
	peer
	device  *engine.Device
	samples int
	// dscratch is the reusable delta buffer of the delta codecs' encoder.
	dscratch []float64

	// forced, when forceOn, is the codec the worker replies in regardless
	// of what the request asked for — a deliberately wrong configuration
	// knob (fedclient -codec) whose mismatched replies the coordinator
	// rejects, proving the same-codec contract is enforced end to end.
	forced  Codec
	forceOn bool
}

// ForceCodec pins the worker's reply codec instead of following each
// request's. This is intentionally allowed to disagree with the
// coordinator, which then rejects the replies — the knob exists to
// configure (and test) exactly that rejection. Call before Serve.
func (w *Worker) ForceCodec(c Codec) { w.forced, w.forceOn = c, true }

// NewWorker connects to addr and performs the Hello handshake. The same
// call is the rejoin path: a worker restarted after a crash dials the
// coordinator again with its old client ID and shard, and is adopted back
// into the cohort at the next round boundary. The device RNG is re-keyed
// from each request's round number (a pure (seed, id, round) hash — see
// engine.Device.BeginRound), so a restarted worker's draws for round t are
// identical to the original process's: a run with a rejoined worker is
// bit-identical to the equivalent scripted-dropout run, and survives a
// coordinator restart the same way.
func NewWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64) (*Worker, error) {
	return newWorker(addr, id, shard, m, seed, nil).connect()
}

// NewChaosWorker is NewWorker with a fault schedule: before solving each
// round the worker looks up ActionFor(id, round) and enforces the event on
// the wire — killing the connection (Crash/Partition), failing once
// (Flake), delaying its reply (Delay), or corrupting its update (Corrupt).
// Because the in-process chaos decorator injects the same faults at the
// same (device, round) points without consuming device RNG, a chaos run is
// bit-identical across the sequential, parallel, and TCP backends.
//
// Chaos workers default to rejoining after injected kills (40 attempts,
// 25ms apart) so Crash and Partition events are per-round outages rather
// than permanent losses; tune with SetRejoin.
func NewChaosWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*Worker, error) {
	return newWorker(addr, id, shard, m, seed, sched).connect()
}

// NewLeasedWorker is NewWorker for the jobs control plane: every Hello
// offers (jobID, epoch), and a coordinator incarnation holding a different
// lease answers with a LeaseReject naming its own — the worker adopts the
// told values and re-Hello's through its rejoin loop, so a worker leased
// to a dead incarnation is fenced out of the next one until it rejoins
// under the new epoch. Leased workers default to a persistent rejoin
// policy (40 attempts, 25ms apart — tune with SetRejoin): surviving the
// coordinator restart is their whole point.
func NewLeasedWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, jobID string, epoch int64) (*Worker, error) {
	w := newWorker(addr, id, shard, m, seed, nil)
	w.leaseJob, w.leaseEpoch = jobID, epoch
	w.SetRejoin(40, 25*time.Millisecond)
	return w.connect()
}

func newWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) *Worker {
	w := &Worker{device: engine.NewDevice(id, shard, m, seed), samples: shard.N()}
	w.init(w, id, addr, sched)
	return w
}

// connect performs the first dial.
func (w *Worker) connect() (*Worker, error) {
	if err := w.dial(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Worker) hello(dst []byte) []byte {
	return marshalHello(dst, &Hello{
		ClientID: w.id, NumSamples: w.samples,
		JobID: w.leaseJob, Epoch: w.leaseEpoch,
	})
}

func (w *Worker) fail(dst []byte, round int, msg string) []byte {
	dst, _ = marshalReply(dst, &RoundReply{ClientID: w.id, Round: round, Err: msg}, nil, nil, 0)
	return dst
}

// solve runs the device's local solve from the request anchor and encodes
// the reply. The decoded req.Anchor doubles as the delta codecs' reference:
// it is by construction bit-identical to the coordinator's codecReference
// output.
func (w *Worker) solve(dst []byte, req *RoundRequest, ev chaos.Event) []byte {
	rep := RoundReply{ClientID: w.id, Round: req.Round, Codec: req.Codec}
	if w.forceOn {
		rep.Codec = w.forced
	}
	traceOn := w.tracing(req)
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep.Err = toErrString(r)
			}
		}()
		var solve trace.WSpan
		if traceOn {
			// Span times are relative to this Rebase (the request's
			// receipt); the coordinator re-bases them onto its timeline.
			// Wire parent 0 designates the propagated round span.
			w.rec.Rebase()
			solve = w.rec.Start("solve", 0)
			w.device.Solver.SetPhaseHook(func(name string) func() {
				return w.rec.Start(name, solve.ID()).End
			})
			defer w.device.Solver.SetPhaseHook(nil)
		}
		start := time.Now()
		// Re-key the device stream from the wire round number: round t's
		// draws are a pure (seed, id, round) hash, identical whether this
		// worker process has served rounds 1..t-1 or just rejoined.
		w.device.BeginRound(req.Round)
		local := w.device.RunRound(req.Anchor, req.Local)
		rep.SolveSeconds = time.Since(start).Seconds()
		if traceOn {
			solve.End()
			rep.Spans = w.rec.Take()
		}
		if ev.Kind == chaos.Corrupt {
			cp := append([]float64(nil), local...)
			w.sched.CorruptVec(ev, cp)
			local = cp
		}
		// Full precision here; the marshaller encodes per rep.Codec.
		rep.Local = local
		rep.GradEvals = w.device.GradEvals()
	}()
	dst, w.dscratch = marshalReply(dst, &rep, req.Anchor, w.dscratch, req.TopK)
	return dst
}
