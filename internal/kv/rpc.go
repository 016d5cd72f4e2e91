package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file is the RPC wire framing: fixed big-endian headers with an
// explicit value length, so frames decode from the front of a ring slot
// (which is larger than the frame) and round-trip byte-exactly — the
// property FuzzKVRPCFraming checks differentially.
//
// Each frame kind decodes two ways. The exported Unmarshal* return a
// message that owns its value (one copy). The unexported view* decode in
// place: the returned Value aliases the input, which is what every ring
// consumer inside the service uses — under verbs.Memory.View's contract
// the bytes are parsed, and copied only where something must outlive the
// event, before the handler returns.

// Op is the key-value operation carried by a request.
type Op uint8

// Request operations.
const (
	OpGet Op = iota
	OpPut

	opCount
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// RespStatus is the outcome carried by a response.
type RespStatus uint8

// Response statuses.
const (
	RespOK RespStatus = iota
	RespNotFound
	// RespReadOnly rejects a Put because the leader lost its quorum and
	// degraded to read-only service.
	RespReadOnly

	respStatusCount
)

// String implements fmt.Stringer.
func (s RespStatus) String() string {
	switch s {
	case RespOK:
		return "OK"
	case RespNotFound:
		return "NOT_FOUND"
	case RespReadOnly:
		return "READ_ONLY"
	default:
		return fmt.Sprintf("RespStatus(%d)", uint8(s))
	}
}

// Frame layout constants.
const (
	reqHeaderLen  = 1 + 4 + 8 + 8 + 4 // op, client, seq, key, vlen
	respHeaderLen = 1 + 4 + 8 + 4     // status, client, seq, vlen

	// maxValueLen bounds decoded values; it exists to keep the fuzzer
	// (and a corrupted ring slot) from demanding absurd allocations.
	maxValueLen = 1 << 20
)

// Request is the client→leader RPC frame.
type Request struct {
	Client uint32
	Seq    uint64 // request id; unique per client and monotone
	Op     Op
	Key    uint64
	Value  []byte // Put payload; nil for Get
}

// MarshalRequest appends r's canonical encoding to dst; a nil dst is
// allocated once at the frame's exact size.
func MarshalRequest(dst []byte, r Request) []byte {
	if dst == nil {
		dst = make([]byte, 0, reqHeaderLen+len(r.Value))
	}
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint32(dst, r.Client)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	return append(dst, r.Value...)
}

// UnmarshalRequest decodes a request from the front of b, returning the
// number of bytes consumed. MarshalRequest(nil, req) == b[:n] for every
// successful decode — the encoding is canonical.
func UnmarshalRequest(b []byte) (req Request, n int, err error) {
	req, n, err = viewRequest(b)
	req.Value = bytes.Clone(req.Value) // an empty value decodes as nil and stays nil
	return req, n, err
}

// viewRequest is UnmarshalRequest without the copy: req.Value aliases b.
func viewRequest(b []byte) (req Request, n int, err error) {
	if len(b) < reqHeaderLen {
		return Request{}, 0, fmt.Errorf("kv: request frame truncated at %d bytes", len(b))
	}
	if b[0] >= byte(opCount) {
		return Request{}, 0, fmt.Errorf("kv: bad request op %d", b[0])
	}
	req.Op = Op(b[0])
	req.Client = binary.BigEndian.Uint32(b[1:])
	req.Seq = binary.BigEndian.Uint64(b[5:])
	req.Key = binary.BigEndian.Uint64(b[13:])
	vlen := binary.BigEndian.Uint32(b[21:])
	if vlen > maxValueLen {
		return Request{}, 0, fmt.Errorf("kv: request value length %d exceeds cap", vlen)
	}
	n = reqHeaderLen + int(vlen)
	if len(b) < n {
		return Request{}, 0, fmt.Errorf("kv: request value truncated: want %d, have %d", n, len(b))
	}
	if vlen > 0 {
		req.Value = b[reqHeaderLen:n:n]
	}
	return req, n, nil
}

// Response is the leader→client RPC frame.
type Response struct {
	Client uint32
	Seq    uint64
	Status RespStatus
	Value  []byte // Get result; nil otherwise
}

// MarshalResponse appends r's canonical encoding to dst; a nil dst is
// allocated once at the frame's exact size.
func MarshalResponse(dst []byte, r Response) []byte {
	if dst == nil {
		dst = make([]byte, 0, respHeaderLen+len(r.Value))
	}
	dst = append(dst, byte(r.Status))
	dst = binary.BigEndian.AppendUint32(dst, r.Client)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	return append(dst, r.Value...)
}

// UnmarshalResponse decodes a response from the front of b, returning
// the number of bytes consumed.
func UnmarshalResponse(b []byte) (resp Response, n int, err error) {
	resp, n, err = viewResponse(b)
	resp.Value = bytes.Clone(resp.Value)
	return resp, n, err
}

// viewResponse is UnmarshalResponse without the copy: resp.Value aliases
// b.
func viewResponse(b []byte) (resp Response, n int, err error) {
	if len(b) < respHeaderLen {
		return Response{}, 0, fmt.Errorf("kv: response frame truncated at %d bytes", len(b))
	}
	if b[0] >= byte(respStatusCount) {
		return Response{}, 0, fmt.Errorf("kv: bad response status %d", b[0])
	}
	resp.Status = RespStatus(b[0])
	resp.Client = binary.BigEndian.Uint32(b[1:])
	resp.Seq = binary.BigEndian.Uint64(b[5:])
	vlen := binary.BigEndian.Uint32(b[13:])
	if vlen > maxValueLen {
		return Response{}, 0, fmt.Errorf("kv: response value length %d exceeds cap", vlen)
	}
	n = respHeaderLen + int(vlen)
	if len(b) < n {
		return Response{}, 0, fmt.Errorf("kv: response value truncated: want %d, have %d", n, len(b))
	}
	if vlen > 0 {
		resp.Value = b[respHeaderLen:n:n]
	}
	return resp, n, nil
}
