package transport

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"bestpeer/internal/wire"
)

// DialBound bounds one connection attempt, by Call and by the messenger;
// CallBound bounds the rest of one Call: sending the request and reading
// its reply.
const (
	DialBound = 2 * time.Second
	CallBound = 5 * time.Second
)

// ErrUnexpectedReply reports a reply whose kind the caller did not ask for.
var ErrUnexpectedReply = errors.New("transport: unexpected reply")

// Call performs one request/response exchange on a connection of its own:
// dial addr within DialBound, send req, read one reply, hang up. Sending
// and reading share one CallBound, enforced by closing the connection, so
// it also holds on networks whose connections ignore deadlines (InProc).
// A reply whose kind is not among want is refused with ErrUnexpectedReply.
// Errors name the step and the address ("dial a: …", "send to a: …",
// "recv from a: …"); callers prefix their package.
func Call(nw Network, addr string, req *wire.Envelope, want ...wire.Kind) (*wire.Envelope, error) {
	conn, err := DialTimeout(nw, addr, DialBound)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	defer time.AfterFunc(CallBound, func() { _ = conn.Close() }).Stop() // a late reply has no one to report to
	wc := wire.NewConn(conn)
	if err := wc.Send(req); err != nil {
		return nil, fmt.Errorf("send to %s: %w", addr, err)
	}
	resp, err := wc.Recv()
	if err != nil {
		return nil, fmt.Errorf("recv from %s: %w", addr, err)
	}
	if !slices.Contains(want, resp.Kind) {
		return nil, fmt.Errorf("%w from %s: kind %v", ErrUnexpectedReply, addr, resp.Kind)
	}
	return resp, nil
}
