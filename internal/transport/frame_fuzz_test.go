package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameDecode drives every frame decoder with arbitrary payloads. The
// decoders sit directly on the network, so the invariant under fuzzing is
// total: any input either decodes or returns an error — no panics, no
// out-of-range indexing, no unbounded allocation (the length checks run
// before the allocations they guard).
//
// The seed corpus (f.Add) holds one well-formed frame per type and codec
// plus classic trouble: truncations, trailing bytes, and a lying length
// prefix. `go test` replays the corpus on every plain
// run — make check covers it — and `make fuzz` (go test -fuzz=FuzzFrameDecode)
// explores from there.
func FuzzFrameDecode(f *testing.F) {
	anchor := testVec(1, 12)
	for _, codec := range allCodecs {
		req := marshalRequest(nil, &RoundRequest{Round: 3, Codec: codec, Anchor: anchor, TopK: 4})
		f.Add(req)
		ref := codecReference(codec, anchor, nil)
		rep, _ := marshalReply(nil, &RoundReply{ClientID: 1, Round: 3, Codec: codec, Local: ref}, ref, nil, 4)
		f.Add(rep)
		f.Add(req[:len(req)-3])
		f.Add(append(append([]byte(nil), rep...), 0x7F))
	}
	f.Add(marshalHello(nil, &Hello{ClientID: 9, NumSamples: 100}))
	done := marshalRequest(nil, &RoundRequest{Done: true})
	f.Add(done)
	errRep, _ := marshalReply(nil, &RoundReply{ClientID: 2, Round: 1, Err: "boom"}, nil, nil, 0)
	f.Add(errRep)
	// A frame whose length prefix claims more than the stream holds.
	f.Add([]byte{frameMagic, msgRoundReply, 0xF0, 0xFF, 0x00, 0x00, 1, 2, 3})
	// The tree and lease frames: each valid, each with a short payload, and
	// an error-flag PartialSum.
	aggHello := marshalAggHello(nil, &AggHello{ShardID: 1, LoDevice: 10, NumDevices: 5, NumSamples: 500})
	partial := marshalPartialSum(nil, &PartialSum{ShardID: 1, Round: 3, Devices: 2, GradEvals: 40, Weight: 20, Sum: anchor})
	lease := marshalLeaseReject(nil, &LeaseReject{JobID: "job-a", Epoch: 7})
	for _, frame := range [][]byte{aggHello, partial, lease} {
		f.Add(frame)
		f.Add(shortPayload(frame, 3))
	}
	f.Add(marshalPartialSum(nil, &PartialSum{ShardID: 1, Round: 3, Err: "boom"}))

	ref := testVec(2, 12)
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case msgHello:
				_, _ = unmarshalHello(payload)
			case msgRoundRequest:
				var req RoundRequest
				_ = unmarshalRequest(payload, &req)
			case msgRoundReply:
				var rep RoundReply
				// Exercise both the matching and the mismatched reference
				// path (delta decode against wrong dims must error cleanly).
				_ = unmarshalReply(payload, &rep, ref)
				var rep2 RoundReply
				_ = unmarshalReply(payload, &rep2, nil)
			case msgAggHello:
				_, _ = unmarshalAggHello(payload)
			case msgPartialSum:
				var ps PartialSum
				_ = unmarshalPartialSum(payload, &ps)
			case msgLeaseReject:
				_, _ = unmarshalLeaseReject(payload)
			default:
				return
			}
		}
	})
}

// shortPayload cuts n bytes off a frame's payload and patches its length
// prefix, so the stream still frames and the decoder sees the short payload.
func shortPayload(frame []byte, n int) []byte {
	out := append([]byte(nil), frame[:len(frame)-n]...)
	binary.LittleEndian.PutUint32(out[2:], uint32(len(out)-frameHeaderSize))
	return out
}
