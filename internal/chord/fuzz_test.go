package chord

import (
	"testing"

	"bestpeer/internal/wire/wiretest"
)

// Selector bytes prefixing FuzzChordCodecs inputs: which decoder the
// remaining bytes are fed to.
const (
	fzLookupReq = iota
	fzLookupOK
	fzNotifyMsg
	fzNotifyOK
	fzProbeReq
	fzProbeOK
)

// chordSeeds are the committed corpus inputs under
// testdata/fuzz/FuzzChordCodecs, one per chord wire kind, at the current
// payload version.
func chordSeeds() []wiretest.Payload {
	sel := func(which byte, body []byte) []byte {
		return append([]byte{which}, body...)
	}
	return []wiretest.Payload{
		{Name: "lookupreq-v1", Bytes: sel(fzLookupReq, encodeLookupReq(&lookupReq{
			Version: chordLookupVersion, Key: HashString("needle"), Hops: 3}))},
		{Name: "lookupok-v1", Bytes: sel(fzLookupOK, encodeLookupOK(&lookupOK{
			Version: chordLookupVersion, Owner: RefFor("n7:100"), Hops: 5}))},
		{Name: "notifymsg-v1", Bytes: sel(fzNotifyMsg, encodeNotifyMsg(&notifyMsg{
			Version: chordNotifyVersion, Self: RefFor("n3:100"),
			Leaving: true, Repl: RefFor("n4:100")}))},
		{Name: "notifyok-v1", Bytes: sel(fzNotifyOK, encodeNotifyOK(&notifyOK{
			Version: chordNotifyVersion}))},
		{Name: "probereq-v1", Bytes: sel(fzProbeReq, encodeProbeReq(&probeReq{
			Version: chordProbeVersion, From: RefFor("n1:100")}))},
		{Name: "probeok-v1", Bytes: sel(fzProbeOK, encodeProbeOK(&probeOK{
			Version: chordProbeVersion, Self: RefFor("n2:100"),
			HasPred: true, Pred: RefFor("n1:100"),
			Succs: []NodeRef{RefFor("n3:100"), RefFor("n4:100")}}))},
	}
}

// payloads is every chord payload with every field populated and every
// list non-empty.
func payloads() []wiretest.Payload {
	return []wiretest.Payload{
		{Name: "lookupreq", Bytes: encodeLookupReq(&lookupReq{
			Version: chordLookupVersion, Key: HashString("needle"), Hops: 3})},
		{Name: "lookupok", Bytes: encodeLookupOK(&lookupOK{
			Version: chordLookupVersion, Err: "no route", Owner: RefFor("n7:100"), Hops: 5})},
		{Name: "notifymsg", Bytes: encodeNotifyMsg(&notifyMsg{
			Version: chordNotifyVersion, Self: RefFor("n3:100"),
			Leaving: true, Repl: RefFor("n4:100")})},
		{Name: "notifyok", Bytes: encodeNotifyOK(&notifyOK{
			Version: chordNotifyVersion, Err: "stale"})},
		{Name: "probereq", Bytes: encodeProbeReq(&probeReq{
			Version: chordProbeVersion, From: RefFor("n1:100")})},
		{Name: "probeok", Bytes: encodeProbeOK(&probeOK{
			Version: chordProbeVersion, Err: "busy", Self: RefFor("n2:100"),
			HasPred: true, Pred: RefFor("n1:100"),
			Succs: []NodeRef{RefFor("n3:100"), RefFor("n4:100")}})},
	}
}

// TestPayloadsGolden: the bytes of every chord payload and of every
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, payloads())
	wiretest.Seeds(t, "FuzzChordCodecs", chordSeeds())
}

// FuzzChordCodecs: arbitrary bytes through every chord payload decoder
// must never panic, and every accepted payload must re-encode to a
// decodable equivalent.
func FuzzChordCodecs(f *testing.F) {
	for _, seed := range chordSeeds() {
		f.Add(seed.Bytes)
	}
	f.Add([]byte{})
	f.Add([]byte{fzProbeOK, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] % 6 {
		case fzLookupReq:
			m, err := decodeLookupReq(body)
			if err != nil {
				return
			}
			back, err := decodeLookupReq(encodeLookupReq(m))
			if err != nil || back.Key != m.Key || back.Hops != m.Hops {
				t.Fatalf("lookupReq round trip: %+v %v", back, err)
			}
		case fzLookupOK:
			m, err := decodeLookupOK(body)
			if err != nil {
				return
			}
			back, err := decodeLookupOK(encodeLookupOK(m))
			if err != nil || back.Owner != m.Owner {
				t.Fatalf("lookupOK round trip: %+v %v", back, err)
			}
		case fzNotifyMsg:
			m, err := decodeNotifyMsg(body)
			if err != nil {
				return
			}
			back, err := decodeNotifyMsg(encodeNotifyMsg(m))
			if err != nil || back.Self != m.Self || back.Leaving != m.Leaving {
				t.Fatalf("notifyMsg round trip: %+v %v", back, err)
			}
		case fzNotifyOK:
			m, err := decodeNotifyOK(body)
			if err != nil {
				return
			}
			if _, err := decodeNotifyOK(encodeNotifyOK(m)); err != nil {
				t.Fatalf("notifyOK round trip: %v", err)
			}
		case fzProbeReq:
			m, err := decodeProbeReq(body)
			if err != nil {
				return
			}
			back, err := decodeProbeReq(encodeProbeReq(m))
			if err != nil || back.From != m.From {
				t.Fatalf("probeReq round trip: %+v %v", back, err)
			}
		case fzProbeOK:
			m, err := decodeProbeOK(body)
			if err != nil {
				return
			}
			back, err := decodeProbeOK(encodeProbeOK(m))
			if err != nil || back.Self != m.Self || len(back.Succs) != len(m.Succs) {
				t.Fatalf("probeOK round trip: %+v %v", back, err)
			}
		}
	})
}
