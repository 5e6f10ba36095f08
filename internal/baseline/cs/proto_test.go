package cs

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// messages is both CS payloads with every field populated.
func messages() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("query", 0, &queryMsg{Query: "needle", Base: "base:1"}),
		wiretest.Of("answer", 0, &answerMsg{Origin: "n3:100", Name: "song.mp3", Data: []byte{0xCA, 0xFE, 0x00, 0x01}}),
	}
}

// TestPayloadsGolden: the bytes of every CS payload are what this build
// encodes — the simulator charges these frames.
func TestPayloadsGolden(t *testing.T) { wiretest.Golden(t, messages()) }

func TestProtoRoundTrips(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestHostileCounts(t *testing.T) { wiretest.Hostile(t, messages(), wire.Unmarshal, nil) }

func FuzzCodecs(f *testing.F) { wiretest.Fuzz(f, messages()) }
