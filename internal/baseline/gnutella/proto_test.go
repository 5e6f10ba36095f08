package gnutella

import (
	"testing"

	"bestpeer/internal/wire/wiretest"
)

// payloads is every Gnutella payload with every field populated and
// every list non-empty.
func payloads() []wiretest.Payload {
	return []wiretest.Payload{
		{Name: "query", Bytes: encodeQueryMsg(&queryMsg{Search: "needle"})},
		{Name: "hit", Bytes: encodeHitMsg(&hitMsg{Origin: "n3:100", Names: []string{"song.mp3", "notes.txt"}})},
		{Name: "pong", Bytes: encodePongMsg(&pongMsg{Addr: "n3:100", Files: 1000})},
	}
}

// TestPayloadsGolden: the bytes of every Gnutella payload are what this
// build encodes — the simulator charges these frames.
func TestPayloadsGolden(t *testing.T) { wiretest.Golden(t, payloads()) }
