package liglo

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// Selector bytes prefixing FuzzRingCodecs inputs: which decoder the
// remaining bytes are fed to.
const (
	fzRedirectMsg = iota
	fzReplicateMsg
	fzReplicateOK
)

// ringSeeds are the committed corpus inputs under
// testdata/fuzz/FuzzRingCodecs, one per ring wire kind, at the current
// payload version.
func ringSeeds() []wiretest.Payload {
	sel := func(which byte, body []byte) []byte {
		return append([]byte{which}, body...)
	}
	return []wiretest.Payload{
		{Name: "redirectmsg-v1", Bytes: sel(fzRedirectMsg, encodeRedirectMsg(&redirectMsg{
			Version: ringRedirectVersion, Addr: "liglo-2", Key: 0xDEADBEEF}))},
		{Name: "replicatemsg-v1", Bytes: sel(fzReplicateMsg, encodeReplicateMsg(&replicateMsg{
			Version: ringReplicateVersion, From: "liglo-1",
			Records: []RingRecord{
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 1}, Addr: "n1:100", Online: true},
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 2}, Addr: "n2:100", Departed: true},
			}}))},
		{Name: "replicateok-v1", Bytes: sel(fzReplicateOK, encodeReplicateOK(&replicateOK{
			Version: ringReplicateVersion}))},
	}
}

// payloads is every LIGLO payload with every field populated and every
// list non-empty: the ring-mode bodies, then the request/reply pairs.
func payloads() []wiretest.Payload {
	id := wire.BPID{LIGLO: "liglo-1", Node: 7}
	peers := []PeerInfo{
		{ID: wire.BPID{LIGLO: "liglo-1", Node: 1}, Addr: "n1:100"},
		{ID: wire.BPID{LIGLO: "liglo-2", Node: 2}, Addr: "n2:100"},
	}
	return []wiretest.Payload{
		{Name: "redirectmsg", Bytes: encodeRedirectMsg(&redirectMsg{
			Version: ringRedirectVersion, Addr: "liglo-2", Key: 0xDEADBEEF})},
		{Name: "replicatemsg", Bytes: encodeReplicateMsg(&replicateMsg{
			Version: ringReplicateVersion, From: "liglo-1",
			Records: []RingRecord{
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 1}, Addr: "n1:100", Online: true},
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 2}, Addr: "n2:100", Departed: true},
			}})},
		{Name: "replicateok", Bytes: encodeReplicateOK(&replicateOK{
			Version: ringReplicateVersion, Err: "not in ring mode"})},
		{Name: "registerreq", Bytes: encodeRegisterReq(&registerReq{Addr: "n7:100"})},
		{Name: "registerresp", Bytes: encodeRegisterResp(&registerResp{Err: "full", ID: id, Peers: peers})},
		{Name: "rejoinreq", Bytes: encodeRejoinReq(&rejoinReq{ID: id, Addr: "n7:200"})},
		{Name: "rejoinresp", Bytes: encodeRejoinResp(&rejoinResp{Err: "unknown"})},
		{Name: "lookupreq", Bytes: encodeLookupReq(&lookupReq{ID: id})},
		{Name: "lookupresp", Bytes: encodeLookupResp(&lookupResp{Err: "wrong home", Found: true, Addr: "n7:200", Online: true})},
		{Name: "deregisterreq", Bytes: encodeDeregisterReq(&deregisterReq{ID: id})},
		{Name: "deregisterresp", Bytes: encodeDeregisterResp(&deregisterResp{Err: "unknown"})},
		{Name: "peersreq", Bytes: encodePeersReq(&peersReq{Self: id, Max: 8})},
		{Name: "peersresp", Bytes: encodePeersResp(&peersResp{Err: "busy", Peers: peers})},
	}
}

// TestPayloadsGolden: the bytes of every LIGLO payload and of every
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, payloads())
	wiretest.Seeds(t, "FuzzRingCodecs", ringSeeds())
}

// FuzzRingCodecs: arbitrary bytes through every ring payload decoder
// must never panic, and every accepted payload must re-encode to a
// decodable equivalent.
func FuzzRingCodecs(f *testing.F) {
	for _, seed := range ringSeeds() {
		f.Add(seed.Bytes)
	}
	f.Add([]byte{})
	f.Add([]byte{fzReplicateMsg, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] % 3 {
		case fzRedirectMsg:
			m, err := decodeRedirectMsg(body)
			if err != nil {
				return
			}
			back, err := decodeRedirectMsg(encodeRedirectMsg(m))
			if err != nil || back.Addr != m.Addr || back.Key != m.Key {
				t.Fatalf("redirectMsg round trip: %+v %v", back, err)
			}
		case fzReplicateMsg:
			m, err := decodeReplicateMsg(body)
			if err != nil {
				return
			}
			back, err := decodeReplicateMsg(encodeReplicateMsg(m))
			if err != nil || back.From != m.From || len(back.Records) != len(m.Records) {
				t.Fatalf("replicateMsg round trip: %+v %v", back, err)
			}
			for i := range m.Records {
				if back.Records[i] != m.Records[i] {
					t.Fatalf("replicateMsg record %d: %+v != %+v", i, back.Records[i], m.Records[i])
				}
			}
		case fzReplicateOK:
			m, err := decodeReplicateOK(body)
			if err != nil {
				return
			}
			back, err := decodeReplicateOK(encodeReplicateOK(m))
			if err != nil || back.Err != m.Err {
				t.Fatalf("replicateOK round trip: %+v %v", back, err)
			}
		}
	})
}
