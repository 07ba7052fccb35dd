package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/trace"
)

// peerRole is what a device-side peer serves on top of the shared
// connection loop: its handshake frame and its per-round reply. Worker
// (one device) and AggregatorNode (a shard of devices) are the two roles.
type peerRole interface {
	// hello appends the role's handshake frame to dst.
	hello(dst []byte) []byte
	// fail appends an error reply for round to dst.
	fail(dst []byte, round int, msg string) []byte
	// solve runs the round req asks for and appends the reply frame to dst.
	// ev is the fault scheduled for this round (zero Kind when none); the
	// connection-level faults are already enforced by the time solve runs.
	solve(dst []byte, req *RoundRequest, ev chaos.Event) []byte
}

// peer is the device side's connection loop, shared by Worker and
// AggregatorNode: it dials the coordinator (behind the chaos conn wrapper
// when a fault schedule is set), sends the role's Hello, serves round
// requests until told to stop, enforces the schedule's Crash, Partition,
// Flake and Delay events before each solve, and re-dials after an unclean
// connection loss under the rejoin policy.
type peer struct {
	role peerRole
	// id is the client ID (Worker) or shard ID (AggregatorNode): the key
	// the fault schedule's ActionFor is looked up by.
	id   int
	addr string
	conn net.Conn

	// req/wbuf are the reusable decode target and encode buffer, so the
	// steady-state round loop does not allocate for the wire.
	fr   frameReader
	fw   frameWriter
	req  RoundRequest
	wbuf []byte

	// Chaos injection (nil for plain peers). cconn is the chaos wrapper
	// around conn when sched != nil, kept so Delay events can arm it.
	sched *chaos.Schedule
	cconn *chaos.Conn
	// flaked remembers rounds whose injected flake already fired, so the
	// coordinator's retry of the same round succeeds (flake-once semantics).
	flaked map[int]bool

	// Lease (jobs control plane): offered in every Worker Hello. When the
	// coordinator answers with a LeaseReject, the peer adopts the told
	// values before re-dialing — see recvRequest and lost.
	leaseJob   string
	leaseEpoch int64

	// Rejoin policy: after an unclean connection loss the peer re-dials
	// the coordinator up to rejoinAttempts times, spaced by rejoinBackoff,
	// and is adopted back at the next round boundary. Zero attempts keeps
	// the historical die-on-disconnect behavior.
	rejoinAttempts int
	rejoinBackoff  time.Duration
	outageTries    int

	// rec, when non-nil, records per-round solve spans relative to each
	// request's receipt and ships them back in the reply — but only for
	// requests that carry a TraceID, so a tracing peer against a
	// non-tracing coordinator sends nothing extra.
	rec *trace.Recorder
}

// init binds the peer to its role. A fault schedule arms the chaos
// defaults: flake-once bookkeeping and a persistent rejoin policy (40
// attempts, 25ms apart), so injected Crash and Partition events are
// per-round outages rather than permanent losses.
func (p *peer) init(role peerRole, id int, addr string, sched *chaos.Schedule) {
	p.role, p.id, p.addr, p.sched = role, id, addr, sched
	if sched != nil {
		p.flaked = make(map[int]bool)
		p.SetRejoin(40, 25*time.Millisecond)
	}
}

// EnableTrace makes the peer record its solve spans and return them in
// round replies whenever the coordinator propagates a trace context
// (RoundRequest.TraceID != 0). Call before Serve.
func (p *peer) EnableTrace() { p.rec = trace.NewRecorder() }

// tracing reports whether req's solve should be recorded.
func (p *peer) tracing(req *RoundRequest) bool { return p.rec != nil && req.TraceID != 0 }

// SetRejoin configures how persistently the peer re-dials the coordinator
// after losing its connection. attempts == 0 disables rejoining (the
// historical behavior for plain workers and nodes).
func (p *peer) SetRejoin(attempts int, backoff time.Duration) {
	p.rejoinAttempts = attempts
	p.rejoinBackoff = backoff
}

// dial (re)establishes the connection and sends the role's Hello. The
// chaos wrapper, when present, is installed before the frame reader and
// writer are built: the protocol assumes a single uninterrupted stream, so
// swapping the writer mid-stream would corrupt it.
func (p *peer) dial() error {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return protocolError("dial", err)
	}
	p.conn, p.cconn = conn, nil
	if p.sched != nil {
		p.cconn = chaos.NewConn(conn)
		p.conn = p.cconn
	}
	p.fw = frameWriter{w: p.conn}
	p.fr = frameReader{r: bufio.NewReader(p.conn)}
	p.wbuf = p.role.hello(p.wbuf[:0])
	if err := p.fw.writeFrame(p.wbuf); err != nil {
		conn.Close()
		return protocolError("hello", err)
	}
	return nil
}

// errStaleLease is returned by recvRequest when the coordinator answered
// the Hello with a LeaseReject. The peer has already adopted the told
// (job, epoch) by then, so the normal lost() path — re-dial, re-Hello —
// performs the lease renewal with no extra machinery.
var errStaleLease = errors.New("transport: lease is stale")

// recvRequest reads the next round request off the wire into p.req,
// overwriting every field.
func (p *peer) recvRequest() error {
	typ, payload, err := p.fr.next()
	if err != nil {
		return err
	}
	switch typ {
	case msgRoundRequest:
		return unmarshalRequest(payload, &p.req)
	case msgLeaseReject:
		lr, err := unmarshalLeaseReject(payload)
		if err != nil {
			return err
		}
		p.leaseJob, p.leaseEpoch = lr.JobID, lr.Epoch
		return errStaleLease
	default:
		return errFrame("expected round request, got frame type %d", typ)
	}
}

// Serve processes round requests until the coordinator sends Done or the
// connection closes. A clean shutdown (Done or EOF) returns nil. With a
// rejoin policy, connection losses trigger re-dials before giving up.
func (p *peer) Serve() error {
	defer func() { p.conn.Close() }()
	for {
		again, err := p.serveConn()
		if !again || err != nil {
			return err
		}
	}
}

// serveConn runs the request loop on the current connection. It returns
// (true, nil) when the peer rejoined on a fresh connection and the loop
// should continue.
func (p *peer) serveConn() (rejoin bool, err error) {
	for {
		if err := p.recvRequest(); err != nil {
			return p.lost(err)
		}
		req := &p.req
		if req.Done {
			return false, nil
		}
		p.outageTries = 0

		var ev chaos.Event
		if p.sched != nil {
			ev, _ = p.sched.ActionFor(p.id, req.Round)
		}
		switch ev.Kind {
		case chaos.Crash, chaos.Partition:
			// Kill before solving: the devices' RNG streams stay untouched
			// this round, matching the in-process decorator, which skips
			// the device (or, for a node, the whole shard) entirely.
			p.killConn()
			return p.lost(net.ErrClosed)
		case chaos.Flake:
			if !p.flaked[req.Round] {
				p.flaked[req.Round] = true
				p.wbuf = p.role.fail(p.wbuf[:0], req.Round, "chaos: injected flake")
				if err := p.fw.writeFrame(p.wbuf); err != nil {
					return p.lost(err)
				}
				continue
			}
		case chaos.Delay:
			p.cconn.ArmWriteDelay(ev.Delay())
		}
		p.wbuf = p.role.solve(p.wbuf[:0], req, ev)
		if err := p.fw.writeFrame(p.wbuf); err != nil {
			return p.lost(err)
		}
	}
}

// killConn drops the connection abruptly (RST when possible), simulating
// a process crash or network partition.
func (p *peer) killConn() {
	if p.cconn != nil {
		p.cconn.Kill()
		return
	}
	p.conn.Close()
}

// lost handles a connection loss: clean closes (Done/EOF/ErrClosed) with
// no rejoin policy end Serve with nil, other errors propagate. With a
// rejoin policy the peer re-dials; a refused dial means the coordinator is
// gone, so every remaining attempt fails fast.
func (p *peer) lost(cause error) (rejoin bool, err error) {
	clean := errors.Is(cause, io.EOF) || errors.Is(cause, net.ErrClosed)
	if p.rejoinAttempts <= 0 {
		if clean {
			return false, nil
		}
		return false, protocolError("recv", cause)
	}
	p.conn.Close()
	for p.outageTries < p.rejoinAttempts {
		p.outageTries++
		time.Sleep(p.rejoinBackoff)
		if err := p.dial(); err == nil {
			return true, nil
		}
	}
	if clean {
		return false, nil
	}
	return false, protocolError("recv", cause)
}

// Close terminates the connection (Serve will then return).
func (p *peer) Close() error { return p.conn.Close() }

func toErrString(r interface{}) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	if s, ok := r.(string); ok {
		return s
	}
	return "worker panic"
}
