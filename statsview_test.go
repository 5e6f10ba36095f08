package bestpeer

// Every Stats() view that reads metric-registry handles is held to the
// counters behind it, so a field dropped from a view's literal, or read
// from the wrong handle, fails here rather than reading zero forever.

import (
	"path/filepath"
	"reflect"
	"testing"

	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
	"bestpeer/internal/wire"
)

// checkStatsView bumps every counter in reg once, alone, and reads the
// view around each bump. A counter that moves the view moves exactly one
// field by exactly one, and every field of the view moves with some
// counter.
func checkStatsView(t *testing.T, reg *obs.Registry, view func() any) {
	t.Helper()
	before := reflect.ValueOf(view())
	typ := before.Type()
	tracked := make(map[string]bool)
	for _, fam := range reg.Snapshot().Families {
		if fam.Type != "counter" {
			continue
		}
		for _, m := range fam.Metrics {
			reg.Counter(fam.Name, fam.Help, m.Labels...).Inc()
			after := reflect.ValueOf(view())
			var moved []string
			for i := 0; i < typ.NumField(); i++ {
				d := after.Field(i).Uint() - before.Field(i).Uint()
				if d == 0 {
					continue
				}
				name := typ.Field(i).Name
				moved = append(moved, name)
				tracked[name] = true
				if d != 1 {
					t.Errorf("one increment of %s%v moved %s.%s by %d", fam.Name, m.Labels, typ.Name(), name, d)
				}
			}
			if len(moved) > 1 {
				t.Errorf("one increment of %s%v moved %s.%v", fam.Name, m.Labels, typ.Name(), moved)
			}
			before = after
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !tracked[name] {
			t.Errorf("%s.%s moves with no counter in the registry", typ.Name(), name)
		}
	}
}

func TestStatsViewsTrackTheirCounters(t *testing.T) {
	nw := transport.NewInProc()

	t.Run("core.Node", func(t *testing.T) {
		store, err := storm.Open(filepath.Join(t.TempDir(), "n.storm"), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		n, err := core.NewNode(core.Config{Network: nw, ListenAddr: "node", Store: store})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		checkStatsView(t, n.Metrics(), func() any { return n.Stats() })
	})
	t.Run("transport.Messenger", func(t *testing.T) {
		reg := obs.NewRegistry()
		m, err := transport.NewMessengerOpts(nw, "msgr", func(*wire.Envelope) {}, transport.Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		checkStatsView(t, reg, func() any { return m.Stats() })
	})
	t.Run("faultnet.Fabric", func(t *testing.T) {
		reg := obs.NewRegistry()
		f := faultnet.NewWithRegistry(nw, 1, reg)
		checkStatsView(t, reg, func() any { return f.Stats() })
	})
}
