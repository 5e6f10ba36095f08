package liglo

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// ringMessages is every ring-mode payload (ringproto.go) with every field
// populated and every list non-empty. The order is the selector byte of
// FuzzRingCodecs inputs, so it is frozen by the committed corpus.
func ringMessages() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("redirectmsg", ringRedirectVersion, &redirectMsg{
			Version: ringRedirectVersion, Addr: "liglo-2", Key: 0xDEADBEEF}),
		wiretest.Of("replicatemsg", ringReplicateVersion, &replicateMsg{
			Version: ringReplicateVersion, From: "liglo-1",
			Records: []ringRecord{
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 1}, Addr: "n1:100", Online: true},
				{ID: wire.BPID{LIGLO: "liglo-1", Node: 2}, Addr: "n2:100", Departed: true},
			}}),
		wiretest.Of("replicateok", ringReplicateVersion, &replicateOK{
			Version: ringReplicateVersion, Err: "not in ring mode"}).
			Seeded(&replicateOK{Version: ringReplicateVersion}),
	}
}

// protoMessages is every request and reply of proto.go, likewise.
func protoMessages() []wiretest.Case {
	id := wire.BPID{LIGLO: "liglo-1", Node: 7}
	peers := []PeerInfo{
		{ID: wire.BPID{LIGLO: "liglo-1", Node: 1}, Addr: "n1:100"},
		{ID: wire.BPID{LIGLO: "liglo-2", Node: 2}, Addr: "n2:100"},
	}
	return []wiretest.Case{
		wiretest.Of("registerreq", 0, &registerReq{Addr: "n7:100"}),
		wiretest.Of("registerresp", 0, &registerResp{Err: "full", ID: id, Peers: peers}),
		wiretest.Of("rejoinreq", 0, &rejoinReq{ID: id, Addr: "n7:200"}),
		wiretest.Of("rejoinresp", 0, &rejoinResp{Err: "unknown"}),
		wiretest.Of("lookupreq", 0, &lookupReq{ID: id}),
		wiretest.Of("lookupresp", 0, &lookupResp{Err: "wrong home", Found: true, Addr: "n7:200", Online: true}),
		wiretest.Of("deregisterreq", 0, &deregisterReq{ID: id}),
		wiretest.Of("deregisterresp", 0, &deregisterResp{Err: "unknown"}),
		wiretest.Of("peersreq", 0, &peersReq{Self: id, Max: 8}),
		wiretest.Of("peersresp", 0, &peersResp{Err: "busy", Peers: peers}),
	}
}

func messages() []wiretest.Case { return append(ringMessages(), protoMessages()...) }

// TestPayloadsGolden: the bytes of every LIGLO payload and of every
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, messages())
	wiretest.Seeds(t, "FuzzRingCodecs", ringMessages())
}

func TestProtoRoundTrips(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestProtoToleratesNewerVersions(t *testing.T) { wiretest.Versions(t, messages()) }

func TestHostileCounts(t *testing.T) {
	wiretest.Hostile(t, messages(), func(b []byte, m wire.Message) error {
		_, err := unmarshal(b, m, "hostile")
		return err
	}, errBadRequest)
}

func FuzzRingCodecs(f *testing.F) { wiretest.Fuzz(f, ringMessages()) }

func FuzzProtoCodecs(f *testing.F) { wiretest.Fuzz(f, protoMessages()) }
