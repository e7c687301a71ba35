// Package rtlink implements an RT-Link-style time-synchronized TDMA link
// protocol over the internal/radio medium.
//
// RT-Link (Rowe, Mangharam, Rajkumar; SECON 2006) organizes time into
// fixed-length frames of transmission slots. A global out-of-band AM sync
// pulse marks every frame boundary; nodes transmit only in slots they own
// and listen only in slots where a neighbor may address them, sleeping the
// rest of the frame. Communication in owned slots is collision-free, which
// is what gives the EVM its bounded-latency control loops.
package rtlink

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"evm/internal/radio"
)

// Kind is the application-level message type carried end-to-end.
type Kind uint8

// Message is the unit handed to and received from the link layer. Messages
// larger than the slot payload are fragmented transparently.
type Message struct {
	Src     radio.NodeID
	Dst     radio.NodeID // end-to-end destination (Broadcast allowed)
	Kind    Kind
	Payload []byte
}

// fragment header layout (big endian):
//
//	0:2  src
//	2:4  dst
//	4    kind
//	5:7  msgID
//	7    frag index
//	8    frag total
const fragHeaderLen = 9

var errShortFrame = errors.New("rtlink: frame shorter than fragment header")

type fragment struct {
	src   radio.NodeID
	dst   radio.NodeID
	kind  Kind
	msgID uint16
	idx   uint8
	total uint8
	chunk []byte
}

// appendEncoded appends the fragment's wire form to dst.
func (f *fragment) appendEncoded(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.src))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.dst))
	dst = append(dst, byte(f.kind))
	dst = binary.BigEndian.AppendUint16(dst, f.msgID)
	dst = append(dst, f.idx, f.total)
	return append(dst, f.chunk...)
}

// decodeFragment parses a frame. The chunk aliases b, the radio's shared
// receive buffer: whoever keeps the chunk past the frame copies it.
func decodeFragment(b []byte) (fragment, error) {
	if len(b) < fragHeaderLen {
		return fragment{}, errShortFrame
	}
	f := fragment{
		src:   radio.NodeID(binary.BigEndian.Uint16(b[0:2])),
		dst:   radio.NodeID(binary.BigEndian.Uint16(b[2:4])),
		kind:  Kind(b[4]),
		msgID: binary.BigEndian.Uint16(b[5:7]),
		idx:   b[7],
		total: b[8],
		chunk: b[fragHeaderLen:],
	}
	return f, nil
}

// fragmentCount returns how many slot-sized fragments a payload needs.
func fragmentCount(payloadLen, maxChunk int) (int, error) {
	if maxChunk <= 0 {
		return 0, fmt.Errorf("rtlink: maxChunk %d", maxChunk)
	}
	n := (payloadLen + maxChunk - 1) / maxChunk
	if n == 0 {
		n = 1
	}
	if n > 255 {
		return 0, fmt.Errorf("rtlink: message of %d bytes needs %d fragments (max 255)", payloadLen, n)
	}
	return n, nil
}

// appendFragments splits a message into slot-sized fragments appended to
// dst. The chunks alias msg.Payload.
func appendFragments(dst []fragment, msg Message, msgID uint16, maxChunk int) ([]fragment, error) {
	n, err := fragmentCount(len(msg.Payload), maxChunk)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		lo := i * maxChunk
		hi := lo + maxChunk
		if hi > len(msg.Payload) {
			hi = len(msg.Payload)
		}
		dst = append(dst, fragment{
			src:   msg.Src,
			dst:   msg.Dst,
			kind:  msg.Kind,
			msgID: msgID,
			idx:   uint8(i),
			total: uint8(n),
			chunk: msg.Payload[lo:hi],
		})
	}
	return dst, nil
}

// reassembler collects fragments into whole messages.
type reassembler struct {
	partial map[reasmKey]*reasmState
}

type reasmKey struct {
	src   radio.NodeID
	msgID uint16
}

type reasmState struct {
	total  uint8
	have   int
	chunks [][]byte
	kind   Kind
	dst    radio.NodeID
}

func newReassembler() *reassembler {
	return &reassembler{partial: make(map[reasmKey]*reasmState)}
}

// add returns the completed message when the final fragment arrives. A
// single-fragment message aliases the fragment's chunk; a reassembled one
// owns its payload.
func (r *reassembler) add(f fragment) (Message, bool) {
	if f.total <= 1 {
		return Message{Src: f.src, Dst: f.dst, Kind: f.kind, Payload: f.chunk}, true
	}
	key := reasmKey{f.src, f.msgID}
	st, ok := r.partial[key]
	if !ok {
		st = &reasmState{total: f.total, chunks: make([][]byte, f.total), kind: f.kind, dst: f.dst}
		r.partial[key] = st
	}
	if int(f.idx) < len(st.chunks) && st.chunks[f.idx] == nil {
		// Held across frames, so copied out of the receive buffer.
		st.chunks[f.idx] = bytes.Clone(f.chunk)
		st.have++
	}
	if st.have < int(st.total) {
		return Message{}, false
	}
	delete(r.partial, key)
	var payload []byte
	for _, c := range st.chunks {
		payload = append(payload, c...)
	}
	return Message{Src: f.src, Dst: f.dst, Kind: st.kind, Payload: payload}, true
}
