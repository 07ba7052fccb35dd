package transport

import (
	"bytes"
	"encoding/gob"
	"math/rand"
)

// Exact wire-size arithmetic for the framed protocol. Because every frame
// layout is fixed-width (spans and error strings aside), per-round traffic
// is a closed-form function of (codec, dim, topK) — these helpers are the
// single source of truth for it, used by the RoundStats accounting tests,
// the fedsim simulated-bandwidth sink and the compression example.

// vecDownBodySize returns the byte count of a downlink vector body after
// its dim prefix (also the uplink body size for the non-sparse codecs,
// whose delta layout is identical).
func vecDownBodySize(c Codec, dim int) int {
	switch c {
	case CodecFloat32:
		return 4 * dim
	case CodecInt16:
		return 16 + 2*dim
	case CodecInt8, CodecTopK:
		return 16 + dim
	}
	return 8 * dim
}

// vecUpBodySize returns the byte count of an uplink vector body after its
// dim prefix. topK is only consulted under CodecTopK.
func vecUpBodySize(c Codec, dim, topK int) int {
	if c == CodecTopK {
		k := clampTopK(topK, dim)
		return 4 + 16 + 5*k
	}
	return vecDownBodySize(c, dim)
}

// HelloWireSize is the framed Hello size in bytes, header included.
const HelloWireSize = frameHeaderSize + 1 + 4 + 4

// requestFixedSize is the non-Done request fixed part after the header:
// round+flags+codec+topK, the local config, and the vector dim prefix.
const requestFixedSize = 4 + 1 + 1 + 4 + (3*8 + 2*4 + 3) + 4

// RequestWireSize returns the exact framed size in bytes (header included)
// of a non-Done RoundRequest broadcasting a dim-dimensional anchor. traced
// adds the 16-byte trace context.
func RequestWireSize(c Codec, dim int, traced bool) int {
	n := frameHeaderSize + requestFixedSize + vecDownBodySize(c, dim)
	if traced {
		n += 16
	}
	return n
}

// ActivateFieldSize is the extra request bytes when the round carries a
// probabilistic-activation probability (reqFlagActivate): one f64.
const ActivateFieldSize = 8

// AggHelloWireSize is the framed AggHello size in bytes, header included.
const AggHelloWireSize = frameHeaderSize + 1 + 4 + 4 + 4 + 8

// PartialSumWireSize returns the exact framed size in bytes (header
// included) of a successful, span-free PartialSum carrying a
// dim-dimensional partial sum. The tree streams partials as raw float64
// only, so there is no codec parameter. (Error frames and shipped spans
// use uvarints, so their sizes are content-dependent; span excess is
// measured on receipt as PartialSum.SpanBytes.)
func PartialSumWireSize(dim int) int {
	// shardID+round+flags + devices+failed+stragglers +
	// gradEvals+solveSeconds+weight + spanCount(0) + dim prefix + body.
	return frameHeaderSize + 4 + 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 1 + 4 + 8*dim
}

// DoneWireSize is the framed size of a Done request.
const DoneWireSize = frameHeaderSize + 4 + 1 + 1 + 4

// ReplyWireSize returns the exact framed size in bytes (header included) of
// a successful, span-free RoundReply carrying a dim-dimensional local model.
// topK is only consulted under CodecTopK. (Error replies and trace spans
// use uvarints, so their sizes are content-dependent.)
func ReplyWireSize(c Codec, dim, topK int) int {
	// clientID+round+flags+codec+gradEvals+solveSeconds+spanCount(0)+dim.
	return frameHeaderSize + 4 + 4 + 1 + 1 + 8 + 8 + 1 + 4 + vecUpBodySize(c, dim, topK)
}

// RoundWireSize returns the exact framed bytes a worker exchange moves in
// one round (request down + reply up), excluding trace spans.
func RoundWireSize(c Codec, dim, topK int, traced bool) int {
	return RequestWireSize(c, dim, traced) + ReplyWireSize(c, dim, topK)
}

// GobRoundWireSize measures the baseline the framed protocol replaced: the
// bytes of one exact (float64) round's request and reply under
// encoding/gob, encoded in memory with full-mantissa vectors (gob
// varint-packs float64s, so round-number values would flatter it).
// firstRound includes gob's one-time type preamble, which a gob stream
// pays once per connection.
func GobRoundWireSize(dim int, firstRound bool) int {
	rng := rand.New(rand.NewSource(1))
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	req := RoundRequest{Round: 1, Anchor: vec}
	rep := RoundReply{ClientID: 1, Round: 1, GradEvals: 1 << 20, SolveSeconds: 0.123, Local: vec}

	measure := func(v interface{}) int {
		var w bytes.Buffer
		enc := gob.NewEncoder(&w)
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
		first := w.Len() // type preamble + one message
		if firstRound {
			return first
		}
		// A second encode on the same stream carries no type preamble —
		// that is the steady-state per-message size.
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
		return w.Len() - first
	}
	return measure(&req) + measure(&rep)
}

// CompressionRatio returns the gob-baseline bytes divided by the framed
// bytes for one steady-state round at the given codec/dim/topK.
func CompressionRatio(c Codec, dim, topK int) float64 {
	gob := GobRoundWireSize(dim, false)
	framed := RoundWireSize(c, dim, topK, false)
	if framed == 0 {
		return 0
	}
	return float64(gob) / float64(framed)
}
