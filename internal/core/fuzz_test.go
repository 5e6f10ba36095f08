package core

import (
	"bytes"
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// departSeed is the committed corpus input
// testdata/fuzz/FuzzDecodeDepart/depart-v1.
func departSeed() []byte {
	return encodeDepart(&departMsg{
		Version: departVersion,
		ID:      wire.BPID{LIGLO: "lg1", Node: 7},
		Hints:   []Peer{{ID: wire.BPID{LIGLO: "lg1", Node: 8}, Addr: "a:1"}, {ID: wire.BPID{LIGLO: "lg1", Node: 9}, Addr: "b:2"}},
	})
}

// payloads is every core control payload with every field populated and
// every list non-empty.
func payloads() []wiretest.Payload {
	id := wire.BPID{LIGLO: "lg1", Node: 7}
	peers := []Peer{{ID: wire.BPID{LIGLO: "lg1", Node: 8}, Addr: "a:1"}, {ID: wire.BPID{LIGLO: "lg2", Node: 9}, Addr: "b:2"}}
	return []wiretest.Payload{
		{Name: "depart", Bytes: encodeDepart(&departMsg{Version: departVersion, ID: id, Hints: peers})},
		{Name: "classwant", Bytes: encodeClassWant(&classWant{Class: "storm.keyword"})},
		{Name: "classship", Bytes: encodeClassShip(&classShip{Class: "storm.keyword", Code: []byte{0xCA, 0xFE, 0x00, 0x01}})},
		{Name: "fetchreq", Bytes: encodeFetchReq(&fetchReq{Names: []string{"song.mp3", "notes.txt"}, Base: "base:1", BaseID: id, AccessLevel: 3})},
		{Name: "peerlistresp", Bytes: encodePeerListResp(&peerListResp{Peers: peers})},
	}
}

// TestPayloadsGolden: the bytes of every core control payload and of the
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, payloads())
	wiretest.Seeds(t, "FuzzDecodeDepart", []wiretest.Payload{{Name: "depart-v1", Bytes: departSeed()}})
}

// FuzzDecodeDepart: arbitrary bytes must never panic, every successful
// decode must re-encode, and the version-tolerance contract must hold —
// a payload whose leading version exceeds departVersion is accepted as
// long as the fields we understand parse.
func FuzzDecodeDepart(f *testing.F) {
	f.Add(departSeed())
	// Newer-sender corpus: version bumped, unknown fields trailing.
	var e wire.Encoder
	e.Uvarint(departVersion + 1)
	e.BPID(wire.BPID{LIGLO: "lg1", Node: 7})
	e.Uvarint(0)
	e.String("future-field")
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeDepart(data)
		if err != nil {
			return
		}
		if m.Version <= departVersion {
			re := encodeDepart(m)
			back, err := decodeDepart(re)
			if err != nil {
				t.Fatalf("re-encoded depart failed to decode: %v", err)
			}
			if back.ID != m.ID || len(back.Hints) != len(m.Hints) {
				t.Fatal("depart round trip changed the message")
			}
		}
	})
}
