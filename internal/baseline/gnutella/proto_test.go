package gnutella

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// messages is every Gnutella payload with every field populated and
// every list non-empty.
func messages() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("query", 0, &queryMsg{Search: "needle"}),
		wiretest.Of("hit", 0, &hitMsg{Origin: "n3:100", Names: []string{"song.mp3", "notes.txt"}}),
		wiretest.Of("pong", 0, &pongMsg{Addr: "n3:100", Files: 1000}),
	}
}

// TestPayloadsGolden: the bytes of every Gnutella payload are what this
// build encodes — the simulator charges these frames.
func TestPayloadsGolden(t *testing.T) { wiretest.Golden(t, messages()) }

func TestProtoRoundTrips(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestHostileCounts(t *testing.T) { wiretest.Hostile(t, messages(), wire.Unmarshal, nil) }

func FuzzCodecs(f *testing.F) { wiretest.Fuzz(f, messages()) }
