package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/core"
	"bestpeer/internal/qroute"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
)

// shellFixture builds a two-node in-process network and returns the base
// node plus its store, with stdout capture around dispatch calls. The
// base runs with the answer cache enabled, like `bestpeer -cache`.
func shellFixture(t *testing.T) (*core.Node, *storm.Store) {
	t.Helper()
	nw := transport.NewInProc()
	mk := func(name string) (*core.Node, *storm.Store) {
		st, err := storm.Open(filepath.Join(t.TempDir(), name+".storm"), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		n, err := core.NewNode(core.Config{Network: nw, ListenAddr: name, Store: st,
			QRoute: qroute.Options{Enable: name == "shell-base"}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, st
	}
	base, baseStore := mk("shell-base")
	peer, peerStore := mk("shell-peer")
	peerStore.Put(&storm.Object{Name: "remote.mp3", Keywords: []string{"jazz"},
		Data: []byte("remote-bytes")})
	base.SetPeers([]core.Peer{{Addr: peer.Addr()}})
	return base, baseStore
}

// capture runs fn with os.Stdout redirected to a buffer.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestShellPutGetLs(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "put local.txt notes some local text")
		dispatch(node, store, "get local.txt")
		dispatch(node, store, "ls")
	})
	for _, want := range []string{"local.txt", "some local text", "[notes]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shell output missing %q:\n%s", want, out)
		}
	}
}

func TestShellQueryFindsRemote(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "query jazz")
	})
	if !strings.Contains(out, "remote.mp3") {
		t.Fatalf("query output missing remote hit:\n%s", out)
	}
	if !strings.Contains(out, "answers in") {
		t.Fatalf("query output missing summary:\n%s", out)
	}
}

func TestShellFilterAndHints(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "filter keyword=jazz & size>5")
	})
	if !strings.Contains(out, "remote.mp3") {
		t.Fatalf("filter output missing hit:\n%s", out)
	}
	// A local match is a hint too; it is read from the store, not fetched.
	store.Put(&storm.Object{Name: "local.mp3", Keywords: []string{"jazz"}, Data: []byte("local-bytes")})
	out = capture(t, func() {
		dispatch(node, store, "hints jazz")
	})
	for _, want := range []string{
		"2 hints, 2 fetched",
		fmt.Sprintf("remote.mp3 from shell-peer (%dB)", len("remote-bytes")),
		fmt.Sprintf("local.mp3 from shell-base (%dB)", len("local-bytes")),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("hints output lacks %q:\n%s", want, out)
		}
	}
}

func TestShellCache(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "query jazz")
		dispatch(node, store, "query jazz") // identical repeat: answer-cache hit
		dispatch(node, store, "cache")
	})
	if !strings.Contains(out, "cache: entries=") {
		t.Fatalf("cache output missing cache line:\n%s", out)
	}
	if !strings.Contains(out, "hits=1") {
		t.Fatalf("repeat query must register one cache hit:\n%s", out)
	}
	if !strings.Contains(out, "routing: terms=") {
		t.Fatalf("cache output missing routing line:\n%s", out)
	}
}

func TestShellPeersAndStats(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "peers")
		dispatch(node, store, "stats")
	})
	if !strings.Contains(out, "shell-peer") {
		t.Fatalf("peers output missing peer:\n%s", out)
	}
	if !strings.Contains(out, "pool: policy=lru") {
		t.Fatalf("stats output missing pool line:\n%s", out)
	}
}

func TestShellErrorsAndExit(t *testing.T) {
	node, store := shellFixture(t)
	out := capture(t, func() {
		dispatch(node, store, "put onlyname")
		dispatch(node, store, "get nope")
		dispatch(node, store, "bogus-cmd")
		dispatch(node, store, "help")
	})
	if !strings.Contains(out, "usage: put") {
		t.Fatalf("missing put usage:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Fatalf("missing get error:\n%s", out)
	}
	if !strings.Contains(out, "unknown command") {
		t.Fatalf("missing unknown-command message:\n%s", out)
	}
	if !dispatch(node, store, "peers") {
		t.Fatal("non-quit command terminated the shell")
	}
	if dispatch(node, store, "quit") {
		t.Fatal("quit did not terminate the shell")
	}
	_ = time.Second
}
