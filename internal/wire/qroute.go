package wire

// QRoute is the query-routing extension carried by agent and result
// envelopes when the qroute subsystem is enabled. Like TraceContext it
// travels as a versioned codec extension (see codec.go): envelopes
// without it encode byte-identically to the legacy layout, old decoders
// skip it, and old encoders' frames parse under new decoders.
type QRoute struct {
	// Via is the base node's first-hop neighbor this agent was routed
	// through. Peers copy it verbatim onto their out-of-network result
	// envelopes so the base can attribute each answer batch to the
	// neighbor that produced it and update its learned routing index.
	Via string `json:"via,omitempty"`
	// Cached marks a result batch served from the peer's answer cache
	// instead of a fresh store scan — the provenance flag surfaced to
	// requesters.
	Cached bool `json:"cached,omitempty"`
	// Epoch is the serving node's store-mutation epoch at serve time.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Fields describes the payload of the codec's qroute extension.
func (q *QRoute) Fields(f *Fields) {
	f.String(&q.Via)
	f.Bool(&q.Cached)
	f.Uvarint(&q.Epoch)
}
