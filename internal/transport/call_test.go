package transport_test

import (
	"errors"
	"testing"
	"time"

	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
	"bestpeer/internal/wire"
)

// serve answers every request on addr with a reply of kind, or — with
// kind 0 — reads the request and never answers.
func serve(t *testing.T, nw transport.Network, addr string, kind wire.Kind) {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				wc := wire.NewConn(c)
				req, err := wc.Recv()
				if err != nil {
					return
				}
				if kind == 0 {
					wc.Recv() // returns once the caller hangs up
					return
				}
				wc.Send(&wire.Envelope{Kind: kind, ID: req.ID, TTL: 1})
			}()
		}
	}()
}

// TestCall: one exchange refuses what it should, within the bound that
// applies to the failing step.
func TestCall(t *testing.T) {
	fab := faultnet.New(transport.NewInProc(), 1)
	serve(t, fab, "hung", wire.KindLigloStatus)
	fab.HangDial("hung")
	t.Cleanup(func() { fab.HealDial("hung") })
	serve(t, fab, "silent", 0)
	serve(t, fab, "wrong", wire.KindLigloPeersList)
	serve(t, fab, "ok", wire.KindLigloStatus)

	for _, tc := range []struct {
		addr     string
		wantErr  error // nil: the exchange succeeds; errAny: any error
		min, max time.Duration
	}{
		{addr: "nobody", wantErr: errAny, max: transport.DialBound},
		{addr: "hung", wantErr: errAny, min: transport.DialBound, max: transport.DialBound + time.Second},
		{addr: "silent", wantErr: errAny, min: transport.CallBound, max: transport.CallBound + time.Second},
		{addr: "wrong", wantErr: transport.ErrUnexpectedReply, max: time.Second},
		{addr: "ok", max: time.Second},
	} {
		t.Run(tc.addr, func(t *testing.T) {
			t.Parallel()
			req := &wire.Envelope{Kind: wire.KindLigloLookup, ID: wire.NewMsgID(), TTL: 1}
			start := time.Now()
			resp, err := transport.Call(fab, tc.addr, req, wire.KindLigloStatus)
			took := time.Since(start)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("Call: %v", err)
			case tc.wantErr == nil && (resp.Kind != wire.KindLigloStatus || resp.ID != req.ID):
				t.Fatalf("reply %v %v, want %v %v", resp.Kind, resp.ID, wire.KindLigloStatus, req.ID)
			case tc.wantErr == errAny && err == nil, tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Fatalf("Call = %v, want %v", err, tc.wantErr)
			}
			if took < tc.min-50*time.Millisecond || took > tc.max {
				t.Fatalf("Call took %v, want %v..%v", took, tc.min, tc.max)
			}
		})
	}
}

var errAny = errors.New("any error")
