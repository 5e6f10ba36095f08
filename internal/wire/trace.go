package wire

// TraceContext is the compact per-query trace context threaded through
// envelopes: which query this message belongs to and where the base node
// collecting the trace lives. It travels as a versioned codec extension
// (see codec.go), so decoders that predate it still parse trace-less
// frames and encoders only pay for it when tracing is on.
type TraceContext struct {
	// QueryID identifies the traced query.
	QueryID MsgID `json:"query_id"`
	// Base is the transport address of the node assembling the trace.
	Base string `json:"base"`
}

// TraceSpan is one hop's record of handling a traced agent: who handled
// it, how it got there, what it cost and what it produced. Peers
// piggyback spans on the out-of-network result return (or a standalone
// span report when there is nothing else to send), and the base node
// assembles them into a query trace tree.
type TraceSpan struct {
	// Peer is the recording node's address.
	Peer string `json:"peer"`
	// Parent is the address the agent arrived from (the previous hop).
	Parent string `json:"parent,omitempty"`
	// Hop is how far the agent had travelled when it arrived here.
	Hop int `json:"hop"`
	// WaitNS is the time between arrival and execution start, in
	// nanoseconds — queueing plus any class-transfer wait.
	WaitNS int64 `json:"wait_ns"`
	// ExecNS is the agent execution time in nanoseconds.
	ExecNS int64 `json:"exec_ns"`
	// Matches is how many local results the agent produced.
	Matches int `json:"matches"`
	// FanOut is how many direct peers the agent was clone-forwarded to.
	FanOut int `json:"fan_out"`
	// Drop is why the agent was not executed ("" when it ran):
	// "expired", "duplicate", "decode", "no-class".
	Drop string `json:"drop,omitempty"`
}

// Fields describes the payload of the codec's trace extension.
func (tc *TraceContext) Fields(f *Fields) {
	f.MsgID(&tc.QueryID)
	f.String(&tc.Base)
}

// Fields describes the payload of the codec's span extension.
func (s *TraceSpan) Fields(f *Fields) {
	f.String(&s.Peer)
	f.String(&s.Parent)
	f.Int(&s.Hop)
	f.Int64(&s.WaitNS)
	f.Int64(&s.ExecNS)
	f.Int(&s.Matches)
	f.Int(&s.FanOut)
	f.String(&s.Drop)
}
