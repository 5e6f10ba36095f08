package cs

import (
	"testing"

	"bestpeer/internal/wire/wiretest"
)

// payloads is both CS payloads with every field populated.
func payloads() []wiretest.Payload {
	return []wiretest.Payload{
		{Name: "query", Bytes: encodeQuery(&queryMsg{Query: "needle", Base: "base:1"})},
		{Name: "answer", Bytes: encodeAnswer(&answerMsg{Origin: "n3:100", Name: "song.mp3", Data: []byte{0xCA, 0xFE, 0x00, 0x01}})},
	}
}

// TestPayloadsGolden: the bytes of every CS payload are what this build
// encodes — the simulator charges these frames.
func TestPayloadsGolden(t *testing.T) { wiretest.Golden(t, payloads()) }
