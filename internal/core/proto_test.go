package core

import (
	"log/slog"
	"strings"
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// messages is every core control payload with every field populated and
// every list non-empty: Depart, which has a fuzz target and a committed
// seed of its own, then the rest in the order FuzzProtoCodecs selects them.
func messages() []wiretest.Case {
	id := wire.BPID{LIGLO: "lg1", Node: 7}
	peers := func(second string) []Peer {
		return []Peer{{ID: wire.BPID{LIGLO: "lg1", Node: 8}, Addr: "a:1"}, {ID: wire.BPID{LIGLO: second, Node: 9}, Addr: "b:2"}}
	}
	return []wiretest.Case{
		wiretest.Of("depart", departVersion, &departMsg{Version: departVersion, ID: id, Hints: peers("lg2")}).
			Seeded(&departMsg{Version: departVersion, ID: id, Hints: peers("lg1")}),
		wiretest.Of("classwant", 0, &classWant{Class: "storm.keyword"}),
		wiretest.Of("classship", 0, &classShip{Class: "storm.keyword", Code: []byte{0xCA, 0xFE, 0x00, 0x01}}),
		wiretest.Of("fetchreq", 0, &fetchReq{Names: []string{"song.mp3", "notes.txt"}, Base: "base:1", BaseID: id, AccessLevel: 3}),
		wiretest.Of("peerlistresp", 0, &peerListResp{Peers: peers("lg2")}),
	}
}

// TestPayloadsGolden: the bytes of every core control payload and of the
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, messages())
	wiretest.Seeds(t, "FuzzDecodeDepart", messages()[:1])
}

func TestProtoRoundTrips(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestProtoToleratesNewerVersions(t *testing.T) { wiretest.Versions(t, messages()) }

func TestHostileCounts(t *testing.T) {
	wiretest.Hostile(t, messages(), func(b []byte, m wire.Message) error {
		_, err := unmarshal(b, m, "hostile")
		return err
	}, ErrBadMessage)
}

func FuzzDecodeDepart(f *testing.F) { wiretest.Fuzz(f, messages()[:1]) }

func FuzzProtoCodecs(f *testing.F) { wiretest.Fuzz(f, messages()[1:]) }

// TestEmptyClassRefused: a class-want or class-ship that names no class
// is well-formed as a payload and refused by its handler, before the
// registry is asked (which would log the install as rejected).
func TestEmptyClassRefused(t *testing.T) {
	sink := &syncBuffer{}
	c := newCluster(t, 1, func(_ int, cfg *Config) { cfg.Logger = slog.New(slog.NewTextHandler(sink, nil)) }, nil)
	n := c.nodes[0]
	n.handleClassWant(&wire.Envelope{Kind: wire.KindClassWant, From: "nobody", Body: wire.Marshal(&classWant{})})
	n.handleClassShip(&wire.Envelope{Kind: wire.KindClassShip, From: "nobody", Body: wire.Marshal(&classShip{Code: []byte{1}})})
	if st := n.Stats(); st.ClassesShipped != 0 || st.ClassesInstalled != 0 || strings.Contains(sink.String(), "class install rejected") {
		t.Fatalf("an empty class reached the registry: %+v\n%s", st, sink.String())
	}
}
