package chord

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// messages is every chord payload with every field populated and every
// list non-empty. The order is the selector byte of FuzzChordCodecs
// inputs, so it is frozen by the committed corpus.
func messages() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("lookupreq", chordLookupVersion, &lookupReq{
			Version: chordLookupVersion, Key: HashString("needle"), Hops: 3}),
		wiretest.Of("lookupok", chordLookupVersion, &lookupOK{
			Version: chordLookupVersion, Err: "no route", Owner: RefFor("n7:100"), Hops: 5}).
			Seeded(&lookupOK{Version: chordLookupVersion, Owner: RefFor("n7:100"), Hops: 5}),
		wiretest.Of("notifymsg", chordNotifyVersion, &notifyMsg{
			Version: chordNotifyVersion, Self: RefFor("n3:100"),
			Leaving: true, Repl: RefFor("n4:100")}),
		wiretest.Of("notifyok", chordNotifyVersion, &notifyOK{
			Version: chordNotifyVersion, Err: "stale"}).
			Seeded(&notifyOK{Version: chordNotifyVersion}),
		wiretest.Of("probereq", chordProbeVersion, &probeReq{
			Version: chordProbeVersion, From: RefFor("n1:100")}),
		wiretest.Of("probeok", chordProbeVersion, &probeOK{
			Version: chordProbeVersion, Err: "busy", Self: RefFor("n2:100"),
			HasPred: true, Pred: RefFor("n1:100"),
			Succs: []NodeRef{RefFor("n3:100"), RefFor("n4:100")}}).
			Seeded(&probeOK{
				Version: chordProbeVersion, Self: RefFor("n2:100"),
				HasPred: true, Pred: RefFor("n1:100"),
				Succs: []NodeRef{RefFor("n3:100"), RefFor("n4:100")}}),
	}
}

// TestPayloadsGolden: the bytes of every chord payload and of every
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, messages())
	wiretest.Seeds(t, "FuzzChordCodecs", messages())
}

func TestProtoRoundTrips(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestProtoToleratesNewerVersions(t *testing.T) { wiretest.Versions(t, messages()) }

func TestHostileCounts(t *testing.T) {
	wiretest.Hostile(t, messages(), func(b []byte, m wire.Message) error {
		_, err := unmarshal(b, m, "hostile")
		return err
	}, ErrBadMessage)
}

func FuzzChordCodecs(f *testing.F) { wiretest.Fuzz(f, messages()) }
