package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedproxvr/internal/core"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

// clientConn is one connected worker or tree shard node.
//
// dead marks a connection the coordinator tore down after a network-level
// fault; a dead worker is skipped (counted as a dropout) until a
// replacement rejoins. dead is written only while holding the coordinator's
// mu (readers off the main goroutine — the rejoin accept loop — also take
// mu).
type clientConn struct {
	id      int
	samples int
	conn    *countingConn
	// rep is the per-connection decode target: its Local and Spans buffers
	// are reused round over round, so decoded models alias it and are valid
	// until the connection's next exchange (the engine consumes them within
	// the round; Round clones).
	fr  frameReader
	fw  frameWriter
	rep RoundReply
	// Aggregation-tree shard node (AggHello handshake): the connection owns
	// devices [lo, lo+ndev) and replies with PartialSum frames decoded into
	// ps (reused like rep).
	isAgg bool
	lo    int
	ndev  int
	ps    PartialSum
	// Lease offered in the Hello (zero when the worker holds none) —
	// checked against the coordinator's own lease by leaseCheck.
	jobID string
	epoch int64
	dead  bool
}

// handshake reads the Hello (flat worker) or AggHello (tree shard node)
// off a fresh connection. A stream that does not open with a Hello frame —
// bad magic included — and a negative sample count are rejected: a
// negative D_n would turn into a negative aggregation weight. On error the
// caller owns closing conn.
func handshake(conn net.Conn, timeout time.Duration) (*clientConn, error) {
	counted := newCountingConn(conn)
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	}
	cc := &clientConn{
		conn: counted,
		fr:   frameReader{r: bufio.NewReader(counted)},
		fw:   frameWriter{w: counted},
	}
	typ, payload, err := cc.fr.next()
	if err != nil {
		return nil, protocolError("hello", err)
	}
	var hello Hello
	switch typ {
	case msgHello:
		if hello, err = unmarshalHello(payload); err != nil {
			return nil, protocolError("hello", err)
		}
	case msgAggHello:
		ah, err := unmarshalAggHello(payload)
		if err != nil {
			return nil, protocolError("hello", err)
		}
		if ah.NumDevices <= 0 || ah.LoDevice < 0 {
			return nil, protocolError("hello",
				errFrame("aggregator shard %d claims device range [%d,+%d)", ah.ShardID, ah.LoDevice, ah.NumDevices))
		}
		cc.isAgg = true
		cc.lo, cc.ndev = ah.LoDevice, ah.NumDevices
		hello = Hello{ClientID: ah.ShardID, NumSamples: int(ah.NumSamples)}
	default:
		return nil, protocolError("hello", errFrame("expected hello, got frame type %d", typ))
	}
	cc.id, cc.samples = hello.ClientID, hello.NumSamples
	cc.jobID, cc.epoch = hello.JobID, hello.Epoch
	if cc.samples < 0 {
		return nil, protocolError("hello", fmt.Errorf("%s reported %d training samples", cc, cc.samples))
	}
	conn.SetReadDeadline(time.Time{})
	return cc, nil
}

// FaultPolicy governs how the coordinator degrades when workers fail
// mid-round instead of aborting the run (the paper's partial-participation
// model: a round aggregates whichever devices report).
type FaultPolicy struct {
	// MaxRetries re-sends a round request to a worker that returned an
	// application-level error (worker-side panic, wrong-round or
	// wrong-codec reply) this many times before counting it out of the
	// round. Network-level failures (dial reset, decode error, deadline
	// exceeded) are never retried: neither a gob stream nor a framed one
	// can be resynchronized after a partial message, so the connection is
	// torn down and the worker may rejoin between rounds with a fresh
	// Hello.
	MaxRetries int
	// RetryBackoff is the pause before each retry.
	RetryBackoff time.Duration
	// MinParticipants is the quorum floor: when fewer workers report, the
	// round is skipped (survivor results are discarded and the global
	// model is left unchanged) rather than aggregating a tiny cohort.
	MinParticipants int
	// MaxFailedRounds aborts the run after this many consecutive skipped
	// rounds. A fully-dead cohort (every connection torn down) aborts
	// immediately regardless.
	MaxFailedRounds int
}

// DefaultFaultPolicy is the policy installed by NewCoordinator: one retry
// per worker per round, a quorum of one, and tolerance for three
// consecutive empty rounds.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{MaxRetries: 1, RetryBackoff: 50 * time.Millisecond, MinParticipants: 1, MaxFailedRounds: 3}
}

// Coordinator is the server side of the distributed runtime. It owns the
// listener, the connected workers, and the wire protocol; the outer loop
// (selection, dropout, aggregation) is the engine's, reached through
// Executor. Per-worker faults degrade rounds instead of aborting them —
// see FaultPolicy and roundSubset.
type Coordinator struct {
	ln       net.Listener
	clients  []*clientConn // index == client ID after construction
	weights  []float64
	timeout  time.Duration
	codec    Codec
	topKFrac float64
	fault    FaultPolicy
	onFault  func(clientID int, err error)

	// Aggregation-tree mode (NewTreeCoordinator): every connection is an
	// AggHello shard node replying with PartialSum frames. actProb is the
	// per-device activation probability broadcast each round; the tree*
	// slices are per-child round metadata (weight Σ D_n, device-level
	// participant/failed/straggler counts), indexed by shard ID, rewritten
	// each round on the coordinator goroutine + the per-child fan-out
	// goroutine that owns the slot. The root's state is O(model + shards) —
	// it never holds per-device anything.
	// Lease identity (jobs control plane): when set, only workers whose
	// Hello carries exactly (leaseJob, leaseEpoch) are admitted — at
	// construction and through the rejoin path alike. Immutable after
	// construction; see leaseCheck.
	leaseJob   string
	leaseEpoch int64

	tree            bool
	actProb         float64
	treeWeight      []float64
	treeDevices     []int
	treeFailed      []int
	treeStragglers  []int
	treeReported    []bool
	totalVirtualDev int // Σ shard NumDevices, for logs/sanity only

	// obsSpanBytes accumulates decoder-measured shipped-span bytes this
	// round (see RoundReply.SpanBytes), so wire accounting can subtract
	// them and stay byte-exact against the span-free closed forms.
	obsSpanBytes atomic.Int64

	// Per-round framed-wire state, rebuilt by roundSubset on the
	// coordinator goroutine before the fan-out and then read-only: the
	// request frame is encoded once and shared by every framed worker, and
	// refBuf holds the dequantized anchor the delta codecs decode against.
	reqFrame []byte
	refBuf   []float64

	mu           sync.Mutex          // guards pending, dead flags cross-goroutine, retired counters
	rejoined     *sync.Cond          // signaled (on mu) when a replacement connection arrives
	pending      map[int]*clientConn // rejoined workers awaiting adoption at the next round
	retiredSent  int64               // bandwidth of replaced connections
	retiredRecv  int64
	skippedRound int // consecutive rounds below the quorum floor

	// Per-round observability, reset by resetRoundObs at the top of
	// roundSubset (before rejoin adoption, so adoptions count into the round
	// they land in). obsOn gates all of it so the off path stays free of
	// per-round work; retries and rejoins accumulate unconditionally (they
	// are cheap) and the reset discards anything recorded while off.
	obsOn      atomic.Bool
	obsRetries atomic.Int64     // re-sent requests this round
	obsRejoins int              // adoptions this round (guarded by mu)
	obsLat     []obs.ClientStat // indexed by position in selected; ID<0 ⇒ no report

	// tracer records the coordinator side of the distributed trace:
	// per-worker round-trip spans, retry/rejoin/fault events, and the
	// ingestion of worker-shipped solve spans. Installed between rounds
	// through Executor.SetTracer; nil (the default) is a universal no-op.
	// The *Tracer itself is goroutine-safe for the round fan-out.
	tracer *trace.Tracer
}

// SetCodec selects the wire codec for subsequent rounds (default
// CodecFloat64). Safe to change between rounds, not during one.
func (c *Coordinator) SetCodec(codec Codec) { c.codec = codec }

// SetTopKFrac sets the fraction of delta coordinates kept per round under
// CodecTopK (default DefaultTopKFraction). Safe to change between rounds,
// not during one. Fractions outside (0, 1] are rejected: above 1 the k
// would silently clamp to dim (sparsification off while still reporting
// topk-delta sizes), and non-positive values would silently fall back to
// the default.
func (c *Coordinator) SetTopKFrac(frac float64) error {
	// The inverted comparison also catches NaN, which passes both range checks.
	if !(frac > 0 && frac <= 1) {
		return fmt.Errorf("transport: topk fraction must be in (0,1], got %v", frac)
	}
	c.topKFrac = frac
	return nil
}

// SetFaultPolicy replaces the fault-handling knobs (default
// DefaultFaultPolicy). Safe to change between rounds, not during one.
func (c *Coordinator) SetFaultPolicy(p FaultPolicy) {
	if p.MinParticipants < 1 {
		p.MinParticipants = 1
	}
	c.fault = p
}

// SetFaultHandler installs an observer called once per worker failure
// (after the round's fan-out has finished, on the coordinator goroutine)
// with the client ID and the error that took it out of the round.
func (c *Coordinator) SetFaultHandler(f func(clientID int, err error)) { c.onFault = f }

// Bandwidth returns the total bytes sent to and received from all workers
// so far, including connections since replaced through the rejoin path.
func (c *Coordinator) Bandwidth() (sent, received int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent, received = c.retiredSent, c.retiredRecv
	for _, cc := range c.clients {
		sent += cc.conn.BytesSent()
		received += cc.conn.BytesReceived()
	}
	return sent, received
}

// NewCoordinator listens on addr (e.g. "127.0.0.1:0") and waits until
// numClients workers have connected and said Hello. Client IDs must be
// distinct and in [0, numClients). When workers need the bound address
// before the handshake completes (":0" ports), bind the listener yourself
// and use NewCoordinatorOn.
func NewCoordinator(addr string, numClients int, timeout time.Duration) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, protocolError("listen", err)
	}
	return NewCoordinatorOn(ln, numClients, timeout)
}

// NewCoordinatorOn completes coordinator construction over an existing
// listener: it blocks until numClients workers have connected and
// handshaked, then returns. On error the listener is closed.
func NewCoordinatorOn(ln net.Listener, numClients int, timeout time.Duration) (*Coordinator, error) {
	return newCoordinatorOn(ln, numClients, timeout, false, "", 0)
}

// NewLeasedCoordinatorOn is NewCoordinatorOn for one jobs-control-plane
// coordinator incarnation: a worker is admitted — at construction and via
// the rejoin path — only when its Hello offers exactly (jobID, epoch). A
// worker with a stale lease is answered with a LeaseReject frame
// carrying the current values before its connection closes, so it adopts
// them and re-Hello's through its rejoin loop; this is the fence that
// keeps a worker leased to a dead incarnation from silently joining the
// next one's rounds. Epoch 0 with an empty jobID means no lease
// (equivalent to NewCoordinatorOn).
func NewLeasedCoordinatorOn(ln net.Listener, numClients int, timeout time.Duration, jobID string, epoch int64) (*Coordinator, error) {
	return newCoordinatorOn(ln, numClients, timeout, false, jobID, epoch)
}

// NewTreeCoordinator is NewCoordinator for an aggregation tree: it waits for
// numShards aggregator nodes (AggHello handshakes) instead of flat workers.
func NewTreeCoordinator(addr string, numShards int, timeout time.Duration) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, protocolError("listen", err)
	}
	return NewTreeCoordinatorOn(ln, numShards, timeout)
}

// NewTreeCoordinatorOn completes tree-coordinator construction over an
// existing listener: it blocks until numShards aggregator nodes have said
// AggHello, then validates that their device ranges tile [0, N)
// contiguously in shard-ID order — the ascending-shard fold order is what
// makes the tree bit-identical to a flat ShardedMean over the same map.
// Tree mode is CodecFloat64-only (partial sums are exact).
func NewTreeCoordinatorOn(ln net.Listener, numShards int, timeout time.Duration) (*Coordinator, error) {
	return newCoordinatorOn(ln, numShards, timeout, true, "", 0)
}

func newCoordinatorOn(ln net.Listener, numClients int, timeout time.Duration, tree bool, leaseJob string, leaseEpoch int64) (*Coordinator, error) {
	if numClients <= 0 {
		ln.Close()
		return nil, fmt.Errorf("transport: need at least one client")
	}
	c := &Coordinator{
		ln:         ln,
		timeout:    timeout,
		fault:      DefaultFaultPolicy(),
		pending:    make(map[int]*clientConn),
		tree:       tree,
		leaseJob:   leaseJob,
		leaseEpoch: leaseEpoch,
	}
	c.rejoined = sync.NewCond(&c.mu)
	seen := make(map[int]bool)
	for len(c.clients) < numClients {
		conn, err := ln.Accept()
		if err != nil {
			c.Close()
			return nil, protocolError("accept", err)
		}
		cc, err := handshake(conn, timeout)
		if err != nil {
			conn.Close()
			c.Close()
			return nil, err
		}
		if !c.leaseCheck(cc) {
			// A stale-leased worker is told the current lease and closed;
			// it re-Hello's with the adopted values, so keep collecting
			// rather than aborting construction.
			continue
		}
		if cc.id < 0 || cc.id >= numClients || seen[cc.id] {
			conn.Close()
			c.Close()
			return nil, fmt.Errorf("transport: bad or duplicate client id %d", cc.id)
		}
		if cc.isAgg != tree {
			conn.Close()
			c.Close()
			if tree {
				return nil, fmt.Errorf("transport: tree coordinator needs aggregator nodes (AggHello), client %d sent a flat Hello", cc.id)
			}
			return nil, fmt.Errorf("transport: aggregator node %d connected to a flat coordinator; use NewTreeCoordinator", cc.id)
		}
		seen[cc.id] = true
		c.clients = append(c.clients, cc)
	}
	sort.Slice(c.clients, func(i, j int) bool { return c.clients[i].id < c.clients[j].id })
	total := 0
	for _, cc := range c.clients {
		total += cc.samples
	}
	if total <= 0 {
		// An all-empty cohort would yield 0/0 = NaN aggregation weights
		// that silently poison the global model.
		c.Close()
		return nil, fmt.Errorf("transport: cohort reported no training samples (total %d)", total)
	}
	c.weights = make([]float64, numClients)
	for i, cc := range c.clients {
		c.weights[i] = float64(cc.samples) / float64(total)
	}
	if tree {
		// Shard ranges must tile [0, N) contiguously in shard-ID order:
		// a gap or overlap would silently double-count or drop devices.
		running := 0
		for _, cc := range c.clients {
			if cc.lo != running {
				c.Close()
				return nil, fmt.Errorf("transport: shard %d owns devices [%d,+%d), expected range to start at %d (shards must tile contiguously in shard-ID order)",
					cc.id, cc.lo, cc.ndev, running)
			}
			running += cc.ndev
		}
		c.totalVirtualDev = running
		c.treeWeight = make([]float64, numClients)
		c.treeDevices = make([]int, numClients)
		c.treeFailed = make([]int, numClients)
		c.treeStragglers = make([]int, numClients)
		c.treeReported = make([]bool, numClients)
	}
	// From here the listener serves the rejoin path: a restarted worker
	// re-Hellos with its old client ID and is adopted at the next round.
	go c.acceptLoop()
	return c, nil
}

// VirtualDevices returns the total device count the tree's shards own
// (zero for a flat coordinator).
func (c *Coordinator) VirtualDevices() int { return c.totalVirtualDev }

// acceptLoop serves post-construction connections: restarted workers
// re-performing the Hello handshake. It exits when the listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handleRejoin(conn)
	}
}

// handleRejoin validates a rejoin Hello and parks the connection for
// adoption at the next round boundary. The replacement must present the ID
// of a currently-dead worker and the same shard size (the aggregation
// weights were fixed at construction); anything else is rejected by
// closing the connection.
func (c *Coordinator) handleRejoin(conn net.Conn) {
	cc, err := handshake(conn, c.timeout)
	if err != nil {
		conn.Close()
		return
	}
	if !c.leaseCheck(cc) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.id < 0 || cc.id >= len(c.clients) {
		conn.Close()
		return
	}
	old := c.clients[cc.id]
	if !old.dead || cc.samples != old.samples ||
		cc.isAgg != old.isAgg || cc.lo != old.lo || cc.ndev != old.ndev {
		conn.Close()
		return
	}
	if prev, ok := c.pending[cc.id]; ok {
		prev.conn.Close()
	}
	c.pending[cc.id] = cc
	c.rejoined.Broadcast()
}

// leaseCheck enforces the lease fence on a freshly handshaked connection.
// A coordinator without a lease admits everyone. With one, a mismatched
// Hello is rejected: a flat worker is first told the current lease
// in a LeaseReject frame (so it adopts the values and re-Hello's through
// its rejoin loop), then the connection closes. Returns whether the
// connection was admitted; on false the connection is already closed.
// leaseJob/leaseEpoch are immutable after construction, so no lock.
func (c *Coordinator) leaseCheck(cc *clientConn) bool {
	if c.leaseJob == "" && c.leaseEpoch == 0 {
		return true
	}
	if cc.jobID == c.leaseJob && cc.epoch == c.leaseEpoch {
		return true
	}
	if !cc.isAgg {
		frame := marshalLeaseReject(nil, &LeaseReject{JobID: c.leaseJob, Epoch: c.leaseEpoch})
		_ = cc.fw.writeFrame(frame)
	}
	cc.conn.Close()
	return false
}

// adoptRejoined swaps pending replacement connections into the cohort.
// Called on the coordinator goroutine at each round boundary, so a round
// never observes a connection swap mid-flight.
func (c *Coordinator) adoptRejoined() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, cc := range c.pending {
		old := c.clients[id]
		c.retiredSent += old.conn.BytesSent()
		c.retiredRecv += old.conn.BytesReceived()
		c.clients[id] = cc
		delete(c.pending, id)
		c.obsRejoins++
		if c.tracer != nil {
			c.tracer.RoundEvent("rejoin", "client "+strconv.Itoa(id))
		}
	}
	c.rejoined.Broadcast()
}

// AwaitRejoin blocks until a replacement connection for client id is live
// or pending adoption, or until timeout. It is a convenience for tests
// and operational tooling; training itself never waits — a rejoined
// worker is simply picked up at the next round. The wait parks on a
// condition variable signaled by the rejoin accept path (no polling).
func (c *Coordinator) AwaitRejoin(id int, timeout time.Duration) error {
	if id < 0 || id >= len(c.clients) {
		return fmt.Errorf("transport: no client %d", id)
	}
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait; a timer broadcast wakes the loop so it
	// can observe the deadline. Taking mu orders the wakeup after the
	// waiter is parked, so the broadcast cannot be lost.
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.rejoined.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if _, queued := c.pending[id]; queued || !c.clients[id].dead {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("transport: client %d did not rejoin within %v", id, timeout)
		}
		c.rejoined.Wait()
	}
}

// Addr returns the listener address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Weights returns the aggregation weights D_n/D gathered from the Hellos.
func (c *Coordinator) Weights() []float64 { return c.weights }

// Round broadcasts the anchor to every worker, gathers the local models,
// and returns them indexed by client ID. A worker that failed the round
// leaves a nil entry; the error is non-nil only for run-fatal conditions
// (every worker dead, quorum floor violated too many rounds in a row).
// The returned slices are the caller's (framed decode buffers are cloned).
func (c *Coordinator) Round(round int, anchor []float64, local core.Config) ([][]float64, error) {
	all := make([]int, len(c.clients))
	for i := range all {
		all[i] = i
	}
	locals := make([][]float64, len(c.clients))
	if _, _, err := c.roundSubset(context.Background(), round, anchor, local.Local, all, locals, nil, 0); err != nil {
		return nil, err
	}
	for i, v := range locals {
		if v != nil {
			locals[i] = mathx.Clone(v)
		}
	}
	return locals, nil
}

// errWorkerDown marks a worker skipped because its connection was already
// torn down in an earlier round (it counts as a dropout, not a new fault).
var errWorkerDown = fmt.Errorf("transport: worker connection is down")

// errStraggler wraps a network timeout attributable to the round deadline
// or a quorum cut rather than the flat per-connection timeout: the worker
// is healthy but late. Its connection is still torn down (a frame stream
// cannot abandon a mid-flight exchange), and it rejoins between rounds.
var errStraggler = errors.New("transport: cut from the round as a straggler")

// errRoundCut marks a worker that was between retry attempts when the
// round was cut. Unlike errStraggler the stream is still framed (the last
// reply was fully read), so the connection survives into the next round.
var errRoundCut = errors.New("transport: round over before retry")

// roundCtx is the immutable per-round wire state shared by the fan-out
// goroutines: the request frame encoded once, the reference anchor the
// delta codecs decode replies against, and the propagated round span that
// shipped solve spans are parented under.
type roundCtx struct {
	round  int
	codec  Codec
	dim    int
	frame  []byte    // shared read-only
	ref    []float64 // dequantized anchor (delta reference), read-only
	spanID uint64
}

// roundSubset runs one round against the selected workers only (partial
// participation), filling locals[i] with selected[i]'s reported model —
// nil when that worker failed the round — and, when evals is non-nil,
// evals[id] with that worker's cumulative gradient evaluations. Models
// from framed workers alias per-connection decode buffers, valid until
// that connection's next exchange (the engine's Executor contract).
//
// Per-worker faults are converted into dropouts: application-level errors
// are retried per FaultPolicy, network-level errors tear the connection
// down (the worker may rejoin between rounds), and the survivors are
// returned. The returned error is non-nil only when the run cannot
// continue: the whole cohort is dead, or fewer than MinParticipants
// reported for more than MaxFailedRounds consecutive rounds.
//
// The straggler policy arrives through ctx and quorum: a ctx deadline
// bounds every in-flight exchange (per-message deadlines are clamped to
// it), and quorum > 0 cuts the round as soon as that many workers have
// reported, force-expiring the laggards' connections. Workers cut either
// way are counted in stragglers, not failed. Mid-round cancellation of a
// deadline-less ctx is deliberately not propagated — tearing down healthy
// connections on a Ctrl-C between rounds would turn a clean stop into a
// fault storm; the engine already stops between rounds.
func (c *Coordinator) roundSubset(ctx context.Context, round int, anchor []float64, local optim.LocalConfig, selected []int, locals [][]float64, evals []int64, quorum int) (failed, stragglers int, err error) {
	obsOn := c.obsOn.Load()
	if obsOn {
		c.resetRoundObs(len(selected))
	}
	c.adoptRejoined()
	if c.tree {
		// Per-child round metadata is rewritten by the fan-out goroutines;
		// clear it here so a child that fails the round reads as absent
		// (weight 0) to ChildWeight and the stats rollup.
		for i := range c.treeWeight {
			c.treeWeight[i] = 0
			c.treeDevices[i], c.treeFailed[i], c.treeStragglers[i] = 0, 0, 0
			c.treeReported[i] = false
		}
	}
	roundDL, hasDL := ctx.Deadline()
	topK := 0
	if c.codec == CodecTopK {
		topK = TopKFor(c.topKFrac, len(anchor))
	}
	// The request carries the full-precision anchor (marshalRequest
	// quantizes per codec); it is encoded once here and the same bytes go to
	// every connection. ref is the anchor exactly as workers decode it — the
	// delta codecs reconstruct replies against it.
	req := RoundRequest{Round: round, Codec: c.codec, Anchor: anchor, Local: local, TopK: topK, ActivateProb: c.actProb}
	tr := c.tracer
	if tr != nil {
		// Propagate the trace context: workers parent their solve spans
		// under the engine's current round span. The request is shared by
		// every worker, so the propagated parent is the round, and each
		// worker's spans are told apart by their process row on ingest.
		req.TraceID = tr.TraceID()
		req.SpanID = tr.CurrentRound()
	}
	c.reqFrame = marshalRequest(c.reqFrame[:0], &req)
	ref := anchor
	if c.codec != CodecFloat64 {
		c.refBuf = codecReference(c.codec, anchor, c.refBuf)
		ref = c.refBuf
	}
	rc := &roundCtx{round: round, codec: c.codec, dim: len(anchor), frame: c.reqFrame, ref: ref, spanID: req.SpanID}
	errs := make([]error, len(selected))
	var cut atomic.Bool
	var wg sync.WaitGroup

	// Quorum plumbing: workers signal sig as they report; a watcher cuts
	// the round at quorum by force-expiring the connections still pending
	// (their blocked reads fail with a timeout classified as a straggler
	// cut). done marks finished workers so the watcher leaves them alone.
	inFlight := 0
	for _, id := range selected {
		if !c.clients[id].dead {
			inFlight++
		}
	}
	useQuorum := quorum > 0 && quorum < inFlight
	var sig chan struct{}
	var done []atomic.Bool
	watchDone := make(chan struct{})
	stopWatch := make(chan struct{})
	if useQuorum {
		sig = make(chan struct{}, len(selected))
		done = make([]atomic.Bool, len(selected))
		go func() {
			defer close(watchDone)
			got := 0
			for {
				select {
				case <-sig:
					got++
					if got >= quorum {
						cut.Store(true)
						past := time.Now().Add(-time.Hour)
						for i, id := range selected {
							if !done[i].Load() {
								c.clients[id].conn.SetDeadline(past)
							}
						}
						return
					}
				case <-stopWatch:
					return
				}
			}
		}()
	} else {
		close(watchDone)
	}

	for i, id := range selected {
		cc := c.clients[id]
		locals[i] = nil
		if cc.dead {
			errs[i] = errWorkerDown
			continue
		}
		wg.Add(1)
		go func(i int, cc *clientConn) {
			defer wg.Done()
			// The round-trip span covers send → reply (retries included) on
			// the worker's client lane; ingested solve spans nest inside it
			// on the timeline even though their tree parent is the round.
			sp := tr.StartClient(cc.id)
			defer sp.End()
			var vec []float64
			var solve float64
			var werr error
			if obsOn {
				t0 := time.Now()
				vec, solve, werr = c.askWorker(cc, rc, evals, roundDL, hasDL, &cut)
				if werr == nil {
					// Distinct goroutines write distinct i — no lock needed.
					c.obsLat[i] = obs.ClientStat{
						ID:           cc.id,
						Seconds:      time.Since(t0).Seconds(),
						SolveSeconds: solve,
					}
				}
			} else {
				vec, _, werr = c.askWorker(cc, rc, evals, roundDL, hasDL, &cut)
			}
			if done != nil {
				done[i].Store(true)
			}
			if sig != nil && werr == nil {
				sig <- struct{}{}
			}
			locals[i], errs[i] = vec, werr
		}(i, cc)
	}
	wg.Wait()
	close(stopWatch)
	// Join the watcher before returning: the next round's adoptRejoined may
	// swap c.clients entries the cut branch indexes.
	<-watchDone

	teardown := func(cc *clientConn) {
		if cc.dead {
			return
		}
		// The stream is unusable after a failed exchange (the framing does
		// not resynchronize past a partial message): tear the connection
		// down. The worker rejoins with a fresh Hello.
		cc.conn.Close()
		c.mu.Lock()
		cc.dead = true
		c.mu.Unlock()
	}
	reported := 0
	for i, werr := range errs {
		if werr == nil {
			reported++
			continue
		}
		cc := c.clients[selected[i]]
		switch {
		case werr == errWorkerDown:
			failed++
			if tr != nil {
				tr.RoundEvent("worker-down", "client "+strconv.Itoa(cc.id))
			}
		case errors.Is(werr, errRoundCut):
			// Caught between retry attempts by the cut: the stream is still
			// framed, so the connection survives into the next round.
			stragglers++
			if tr != nil {
				tr.RoundEvent("straggler-cut", "client "+strconv.Itoa(cc.id)+" (between retries)")
			}
		case errors.Is(werr, errStraggler):
			stragglers++
			teardown(cc)
			if tr != nil {
				tr.RoundEvent("straggler-cut", "client "+strconv.Itoa(cc.id))
			}
		default:
			failed++
			teardown(cc)
			if tr != nil {
				tr.RoundEvent("worker-fault", "client "+strconv.Itoa(cc.id)+": "+werr.Error())
			}
			if c.onFault != nil {
				c.onFault(cc.id, werr)
			}
		}
	}
	if c.liveWorkers() == 0 {
		return failed, stragglers, fmt.Errorf("transport: round %d: every worker is dead (last error: %w)", round, firstError(errs))
	}
	if reported < c.fault.MinParticipants {
		// Below quorum: discard the round (survivor results included) so
		// the engine leaves the global model unchanged.
		for i := range selected {
			locals[i] = nil
		}
		failed, stragglers = len(selected), 0
		c.skippedRound++
		if c.skippedRound > c.fault.MaxFailedRounds {
			return failed, stragglers, fmt.Errorf("transport: %d consecutive rounds below the %d-participant quorum (last error: %w)",
				c.skippedRound, c.fault.MinParticipants, firstError(errs))
		}
		return failed, stragglers, nil
	}
	c.skippedRound = 0
	return failed, stragglers, nil
}

// askWorker performs one worker's round exchange with bounded retry.
// solveSec is the worker-reported local-solve duration of the successful
// attempt (zero on failure). Retries are abandoned once the round is cut
// (quorum reached or the round deadline passed) — the reply would be
// discarded anyway.
func (c *Coordinator) askWorker(cc *clientConn, rc *roundCtx, evals []int64, roundDL time.Time, hasDL bool, cut *atomic.Bool) (vec []float64, solveSec float64, err error) {
	var lastErr error
	for attempt := 0; attempt <= c.fault.MaxRetries; attempt++ {
		if attempt > 0 {
			if cut.Load() || (hasDL && !time.Now().Before(roundDL)) {
				return nil, 0, errRoundCut
			}
			c.obsRetries.Add(1)
			if c.tracer != nil {
				c.tracer.RoundEvent("retry", "client "+strconv.Itoa(cc.id)+" attempt "+strconv.Itoa(attempt))
			}
			if c.fault.RetryBackoff > 0 {
				time.Sleep(c.fault.RetryBackoff)
			}
		}
		vec, solve, err, retriable := c.exchange(cc, rc, evals, roundDL, hasDL, cut)
		if err == nil {
			return vec, solve, nil
		}
		lastErr = err
		if !retriable {
			break
		}
	}
	return nil, 0, lastErr
}

// exchange is a single request/reply attempt. Flat workers and tree shards
// share it: the same request frame goes down, and only the decoding of the
// reply differs (a RoundReply or a PartialSum, see decodeReply). retriable
// distinguishes application-level failures (worker panic, wrong-round or
// wrong-codec reply — the stream is still framed, so a resend can succeed)
// from network-level ones (the stream is torn; the caller must drop the
// connection). The per-message deadline is the flat timeout clamped to the
// round deadline; a timeout attributable to the round deadline or a quorum
// cut is wrapped in errStraggler so the caller can tell a late worker from
// a dead one.
func (c *Coordinator) exchange(cc *clientConn, rc *roundCtx, evals []int64, roundDL time.Time, hasDL bool, cut *atomic.Bool) (vec []float64, solveSec float64, err error, retriable bool) {
	var dl time.Time
	if c.timeout > 0 {
		dl = time.Now().Add(c.timeout)
	}
	dlIsRound := false
	if hasDL && (dl.IsZero() || roundDL.Before(dl)) {
		dl = roundDL
		dlIsRound = true
	}
	if !dl.IsZero() {
		cc.conn.SetDeadline(dl)
		// Clear the absolute deadline on every exit path: a deadline left
		// armed after an error would spuriously time out the next round.
		defer cc.conn.SetDeadline(time.Time{})
	}
	wrap := func(op string, cause error) error {
		perr := protocolError(fmt.Sprintf("%s client %d", op, cc.id), cause)
		var ne net.Error
		if errors.As(cause, &ne) && ne.Timeout() && (dlIsRound || cut.Load()) {
			return fmt.Errorf("%w: %v", errStraggler, perr)
		}
		return perr
	}
	// The send time is the coordinator-side base for re-basing the worker's
	// request-relative span times onto this trace's timeline (no clock
	// synchronization between the processes is assumed).
	var sentAt time.Time
	if c.tracer != nil {
		sentAt = time.Now()
	}
	if err := cc.fw.writeFrame(rc.frame); err != nil {
		return nil, 0, wrap("send to", err), false
	}
	typ, payload, err := cc.fr.next()
	if err != nil {
		return nil, 0, wrap("recv from", err), false
	}
	rep, err := cc.decodeReply(typ, payload, rc.ref)
	if err != nil {
		return nil, 0, wrap("recv from", err), false
	}
	if rep.spanBytes > 0 {
		c.obsSpanBytes.Add(int64(rep.spanBytes))
	}
	if rep.errText != "" {
		return nil, 0, fmt.Errorf("transport: %s: %s", cc, rep.errText), true
	}
	if rep.round != rc.round {
		return nil, 0, fmt.Errorf("transport: %s replied for round %d, want %d",
			cc, rep.round, rc.round), true
	}
	if rep.codec != rc.codec {
		// Enforce the same-codec contract instead of silently dequantizing
		// whatever arrived: a mixed-codec aggregate would blend different
		// error floors without anything flagging it.
		return nil, 0, fmt.Errorf("transport: %s replied in codec %v, want %v",
			cc, rep.codec, rc.codec), true
	}
	if len(rep.vec) != rc.dim {
		return nil, 0, fmt.Errorf("transport: %s sent %d params, want %d",
			cc, len(rep.vec), rc.dim), true
	}
	if evals != nil {
		evals[cc.id] = rep.gradEvals
	}
	if cc.isAgg {
		// The shard's round weight and device-level counts land in the
		// per-child tree metadata slots, which only this goroutine writes
		// this round.
		c.treeWeight[cc.id] = cc.ps.Weight
		c.treeDevices[cc.id] = cc.ps.Devices
		c.treeFailed[cc.id] = cc.ps.Failed
		c.treeStragglers[cc.id] = cc.ps.Stragglers
		c.treeReported[cc.id] = true
	}
	if c.tracer != nil && len(rep.spans) > 0 {
		proc := "worker-"
		if cc.isAgg {
			proc = "shard-"
		}
		c.tracer.IngestWire(rep.spans, rc.spanID, proc+strconv.Itoa(cc.id), sentAt)
	}
	return rep.vec, rep.solveSec, nil, false
}

// reply is the part of a decoded RoundReply or PartialSum that exchange
// checks. vec aliases the connection's decode buffer: a flat worker's
// local model, or a shard's pre-weighted partial sum Σ D_n·w_n.
type reply struct {
	round     int
	codec     Codec
	vec       []float64
	gradEvals int64
	solveSec  float64
	errText   string
	spans     []trace.WireSpan
	spanBytes int
}

// String names the peer in errors: "client N" or, for a tree shard node,
// "shard N".
func (cc *clientConn) String() string {
	if cc.isAgg {
		return "shard " + strconv.Itoa(cc.id)
	}
	return "client " + strconv.Itoa(cc.id)
}

// decodeReply decodes a reply frame into the connection's reusable
// RoundReply (flat worker) or PartialSum (tree shard). Partial sums always
// travel as float64, whatever the round's codec.
func (cc *clientConn) decodeReply(typ byte, payload []byte, ref []float64) (reply, error) {
	if cc.isAgg {
		if typ != msgPartialSum {
			return reply{}, errFrame("expected partial sum, got frame type %d", typ)
		}
		ps := &cc.ps
		if err := unmarshalPartialSum(payload, ps); err != nil {
			return reply{}, err
		}
		return reply{ps.Round, CodecFloat64, ps.Sum, ps.GradEvals, ps.SolveSeconds, ps.Err, ps.Spans, ps.SpanBytes}, nil
	}
	if typ != msgRoundReply {
		return reply{}, errFrame("expected round reply, got frame type %d", typ)
	}
	rep := &cc.rep
	if err := unmarshalReply(payload, rep, ref); err != nil {
		return reply{}, err
	}
	return reply{rep.Round, rep.Codec, rep.Local, rep.GradEvals, rep.SolveSeconds, rep.Err, rep.Spans, rep.SpanBytes}, nil
}

// resetRoundObs clears the per-round observability state for a round with n
// selected workers. Runs before adoptRejoined so adoptions land in the round
// being measured; also discards any retry/rejoin counts accumulated while
// observability was off.
func (c *Coordinator) resetRoundObs(n int) {
	c.obsRetries.Store(0)
	c.obsSpanBytes.Store(0)
	c.mu.Lock()
	c.obsRejoins = 0
	c.mu.Unlock()
	if cap(c.obsLat) < n {
		c.obsLat = make([]obs.ClientStat, n)
	}
	c.obsLat = c.obsLat[:n]
	for i := range c.obsLat {
		c.obsLat[i] = obs.ClientStat{ID: -1}
	}
}

// collectRoundObs folds the last round's retry/rejoin counts and per-client
// latencies into rs. Latency entries exist only for workers that reported
// (ID ≥ 0); a below-quorum round keeps the survivors' latencies even though
// their models were discarded — the work and the bytes were real.
func (c *Coordinator) collectRoundObs(rs *obs.RoundStats) {
	rs.Retries += int(c.obsRetries.Load())
	rs.SpanBytes += c.obsSpanBytes.Load()
	c.mu.Lock()
	rs.Rejoins += c.obsRejoins
	c.mu.Unlock()
	for _, s := range c.obsLat {
		if s.ID >= 0 {
			rs.Clients = append(rs.Clients, s)
		}
	}
}

// liveWorkers counts the connections not torn down (pending rejoins count:
// they become live at the next round boundary).
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pending)
	for _, cc := range c.clients {
		if !cc.dead {
			n++
		}
	}
	return n
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil && err != errWorkerDown {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("no worker error recorded")
}

// Executor adapts the coordinator to the engine's Executor interface: each
// RunClients is one wire round against the selected workers. It satisfies
// engine.EvalCounter from the workers' reported cumulative evaluation
// counts.
type Executor struct {
	c     *Coordinator
	local optim.LocalConfig
	round int
	ext   int // round set by BeginRound for the next run; 0 = self-count
	buf   [][]float64
	evals []int64

	stragglers int

	statsOn  bool
	lastSent int64 // Bandwidth baseline so CollectStats reports deltas
	lastRecv int64
}

// Executor returns an engine backend that drives this coordinator's
// workers with the given local configuration.
func (c *Coordinator) Executor(local optim.LocalConfig) *Executor {
	return &Executor{c: c, local: local, evals: make([]int64, len(c.clients))}
}

// RunClients implements engine.Executor, including its partial-result
// contract: out[i] == nil means worker selected[i] failed the round and
// the engine aggregates the survivors. The error is non-nil only when the
// run cannot continue (dead cohort, exhausted quorum).
func (x *Executor) RunClients(anchor []float64, selected []int) ([][]float64, error) {
	return x.run(context.Background(), anchor, selected, 0)
}

// RunClientsCtx implements engine.ContextExecutor: the coordinator cuts
// the round when ctx's deadline fires or minReport workers have reported,
// returning the laggards as nil partial results counted in Stragglers.
func (x *Executor) RunClientsCtx(ctx context.Context, anchor []float64, selected []int, minReport int) ([][]float64, error) {
	return x.run(ctx, anchor, selected, minReport)
}

// BeginRound implements engine.RoundBeginner: the wire round number (which
// workers re-key their device RNG streams from) follows the engine's
// counter, so a coordinator resuming a checkpointed job at round t sends
// round t — not a private count restarted at 1 — and every worker's
// round-t draws match the uninterrupted run's.
func (x *Executor) BeginRound(t int) { x.ext = t }

func (x *Executor) run(ctx context.Context, anchor []float64, selected []int, quorum int) ([][]float64, error) {
	if x.ext > 0 {
		x.round, x.ext = x.ext, 0
	} else {
		x.round++
	}
	if cap(x.buf) < len(selected) {
		x.buf = make([][]float64, len(selected))
	}
	out := x.buf[:len(selected)]
	_, stragglers, err := x.c.roundSubset(ctx, x.round, anchor, x.local, selected, out, x.evals, quorum)
	x.stragglers = stragglers
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stragglers implements engine.StragglerCounter.
func (x *Executor) Stragglers() int { return x.stragglers }

// ChildWeight reports shard child's Σ D_n for the current round (raw
// sample counts over its reporting devices; zero when the whole shard sat
// out or its connection failed). It is the weight callback a PartialMean
// root aggregator folds with — see Coordinator.TreeEngine.
func (x *Executor) ChildWeight(child int) float64 { return x.c.treeWeight[child] }

// GradEvals implements engine.EvalCounter: the sum of every worker's last
// reported cumulative gradient-evaluation count.
func (x *Executor) GradEvals() int64 {
	var s int64
	for _, e := range x.evals {
		s += e
	}
	return s
}

// SetTracer implements engine.TraceSource: the coordinator records
// per-worker round-trip spans, fires retry/rejoin/straggler/fault events
// on the round span, and ingests the solve spans workers ship back in
// their replies. Safe to change between rounds, not during one.
func (x *Executor) SetTracer(tr *trace.Tracer) { x.c.tracer = tr }

// EnableStats implements engine.StatsSource. Turning stats on baselines the
// byte counters so the first observed round reports a per-round delta, not
// the connection lifetime total (the Hello handshake predates the engine).
func (x *Executor) EnableStats(on bool) {
	x.statsOn = on
	x.c.obsOn.Store(on)
	if on {
		x.lastSent, x.lastRecv = x.c.Bandwidth()
	}
}

// CollectStats implements engine.StatsSource: per-round wire-byte deltas
// (retired connections included, via Bandwidth) plus the coordinator's
// retry/rejoin counts, the active codec, and per-client round-trip and
// solve latencies.
func (x *Executor) CollectStats(rs *obs.RoundStats) {
	if !x.statsOn {
		return
	}
	sent, recv := x.c.Bandwidth()
	rs.BytesSent += sent - x.lastSent
	rs.BytesRecv += recv - x.lastRecv
	rs.Codec = x.c.codec.String()
	x.lastSent, x.lastRecv = sent, recv
	x.c.collectRoundObs(rs)
	if x.c.tree {
		// The engine counted shard connections; roll the shards'
		// PartialSum accounting up to device-level totals. A shard whose
		// connection failed contributes nothing (its devices' fate is
		// unknown to the root — by design it holds no per-device state).
		var parts, failed, strag, shards int
		for id, ok := range x.c.treeReported {
			if !ok {
				continue
			}
			shards++
			parts += x.c.treeDevices[id]
			failed += x.c.treeFailed[id]
			strag += x.c.treeStragglers[id]
		}
		rs.Participants, rs.Failed, rs.Stragglers = parts, failed, strag
		rs.Shards = shards
	}
}

// Train runs cfg.Rounds federated rounds starting from w0 and returns the
// final global model and the metric series. If evalModel and trainSets are
// provided, per-round loss is measured server-side (the coordinator needs
// the data only for evaluation; training data never leaves workers in a
// real deployment — pass nil to skip).
func (c *Coordinator) Train(w0 []float64, cfg core.Config, evalModel models.Model, trainSets []*data.Dataset) ([]float64, *metrics.Series, error) {
	return c.TrainContext(context.Background(), w0, cfg, evalModel, trainSets)
}

// TrainContext is Train with cancellation: the run stops between rounds
// when ctx is done, returning the series so far alongside ctx.Err().
func (c *Coordinator) TrainContext(ctx context.Context, w0 []float64, cfg core.Config, evalModel models.Model, trainSets []*data.Dataset) ([]float64, *metrics.Series, error) {
	eng, err := c.Engine(w0, cfg, evalModel, trainSets)
	if err != nil {
		return nil, nil, err
	}
	series, err := eng.Run(ctx)
	if err != nil {
		return nil, series, err
	}
	return mathx.Clone(eng.Global()), series, nil
}

// Engine builds a ready-to-run engine over this coordinator's workers:
// Train in pieces, for callers that want hooks or checkpointing.
func (c *Coordinator) Engine(w0 []float64, cfg core.Config, evalModel models.Model, trainSets []*data.Dataset) (*engine.Engine, error) {
	eng, err := engine.New(cfg, len(w0), c.weights, c.Executor(cfg.Local))
	if err != nil {
		return nil, err
	}
	eng.SetGlobal(w0)
	if evalModel != nil {
		eng.SetEvaluator(&engine.Evaluator{
			Model:   evalModel,
			Clients: trainSets,
			Weights: c.weights,
			Test:    cfg.Test,
		})
	}
	return eng, nil
}

// TreeEngine builds a ready-to-run engine over this tree coordinator's
// aggregator nodes: the engine's "cohort" is the shards, every shard is
// addressed every round (full participation at the root), and the root
// aggregator is a PartialMean folding the shards' pre-weighted partial sums
// in ascending shard order — bit-identical to a flat ShardedMean over the
// same shard map. cfg.ActivateProb is lifted off the engine and broadcast
// to the nodes instead, which evaluate the per-device activation over their
// own ranges; everything per-device (sampling, dropout injection, DP,
// secure masking) is rejected because the root never sees devices.
// evalModel (with cfg.Test) gives test-set accuracy; training loss is NaN —
// the root holds no training shards, by design.
func (c *Coordinator) TreeEngine(w0 []float64, cfg core.Config, evalModel models.Model) (*engine.Engine, error) {
	if !c.tree {
		return nil, fmt.Errorf("transport: TreeEngine needs a tree coordinator (NewTreeCoordinator)")
	}
	if c.codec != CodecFloat64 {
		return nil, fmt.Errorf("transport: the aggregation tree is float64-only (partial sums must stay exact), coordinator codec is %v", c.codec)
	}
	if cfg.SecureAgg || cfg.DPClip > 0 || cfg.DPNoise > 0 {
		return nil, fmt.Errorf("transport: SecureAgg/DP aggregation needs per-device submissions; the tree root only sees per-shard partial sums")
	}
	if cfg.DropoutProb > 0 {
		return nil, fmt.Errorf("transport: engine-side dropout injection over the tree would drop whole shards, not devices; use -activate-prob or chaos schedules on the nodes")
	}
	if cfg.ClientFraction != 0 && cfg.ClientFraction != 1 {
		return nil, fmt.Errorf("transport: ClientFraction sampling over the tree would sample shards, not devices; use ActivateProb")
	}
	if cfg.ActivateProb < 0 || cfg.ActivateProb > 1 {
		return nil, fmt.Errorf("transport: ActivateProb must be in [0,1], got %v", cfg.ActivateProb)
	}
	x := c.Executor(cfg.Local)
	// The nodes run the activation draw over their device ranges; the root
	// engine addresses every shard every round.
	c.actProb = cfg.ActivateProb
	cfg.ActivateProb = 0
	eng, err := engine.New(cfg, len(w0), c.weights, x)
	if err != nil {
		return nil, err
	}
	eng.SetAggregator(engine.NewPartialMean(len(w0), x.ChildWeight))
	eng.SetGlobal(w0)
	if evalModel != nil {
		eng.SetEvaluator(&engine.Evaluator{Model: evalModel, Test: cfg.Test})
	}
	return eng, nil
}

// Shutdown tells every live worker (including pending rejoins) to exit
// cleanly. Dead connections are skipped.
func (c *Coordinator) Shutdown() {
	c.adoptRejoined()
	doneFrame := marshalRequest(nil, &RoundRequest{Done: true})
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.clients {
		if cc.dead {
			continue
		}
		_ = cc.fw.writeFrame(doneFrame)
	}
}

// Close shuts the listener (stopping the rejoin accept loop) and all
// connections, pending rejoins included.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.clients {
		cc.conn.Close()
	}
	for _, cc := range c.pending {
		cc.conn.Close()
	}
	return err
}
