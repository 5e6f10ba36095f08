package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
)

// What the external tests (package wire_test, which may import the agent
// and workload packages this one cannot) need of the internals.
const (
	CompressionThreshold = compressionThreshold
	FixedCeiling         = fixedCeiling
	ProbeFloor           = probeFloor
	FrameHeaderSize      = frameHeaderSize
)

// RawBody is the envelope as EncodeEnvelope lays it out before framing.
var RawBody = rawBody

// StoredFrame frames raw as it is: length, a clear flags byte, raw.
func StoredFrame(raw []byte) []byte {
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, frameHeaderSize+len(raw)), uint32(len(raw)+1))
	return append(append(frame, 0), raw...)
}

// KernelEncode is what EncodeEnvelope must send for a raw body of
// CompressionThreshold to FixedCeiling-1 bytes: the small-frame kernel's
// gzip frame when it is shorter than raw, the stored form otherwise.
func KernelEncode(e *Envelope) []byte {
	raw := rawBody(e)
	var member [fixedMemberMax]byte
	if n := deflateFixed(&member, raw); n < len(raw) {
		frame := binary.BigEndian.AppendUint32(nil, uint32(n+1))
		return append(append(frame, flagGzip), member[:n]...)
	}
	return StoredFrame(raw)
}

// ReferenceEncode is the always-deflate encoder, the oracle the probe is
// held against: the rule EncodeEnvelope followed before it asked whether
// a body could compress — every body of compressionThreshold bytes or
// more goes through a fresh gzip.Writer and the result is kept if it is
// smaller. A frame the probe lets through must equal this one byte for
// byte; a frame it stops must equal StoredFrame of the same raw bytes.
// The envelope's kind must be valid.
func ReferenceEncode(e *Envelope) []byte {
	raw := rawBody(e)
	if len(raw) >= compressionThreshold {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		_, _ = zw.Write(raw) // into a bytes.Buffer: cannot fail
		_ = zw.Close()
		if z.Len() < len(raw) {
			frame := binary.BigEndian.AppendUint32(nil, uint32(z.Len()+1))
			return append(append(frame, flagGzip), z.Bytes()...)
		}
	}
	return StoredFrame(raw)
}
