package agent

import (
	"errors"
	"testing"

	"bestpeer/internal/storm"
)

func mustCompile(t *testing.T, src string) Predicate {
	t.Helper()
	p, err := CompileFilter(src)
	if err != nil {
		t.Fatalf("CompileFilter(%q): %v", src, err)
	}
	return p
}

var filterObjs = []*storm.Object{
	{Name: "Report-2001", Keywords: []string{"finance", "annual"}, Data: []byte("profits up")},
	{Name: "draft-memo", Keywords: []string{"internal"}, Data: []byte("DRAFT: do not share, large content here")},
	{Name: "song.mp3", Keywords: []string{"jazz"}, Kind: storm.StaticObject, Data: make([]byte, 1024)},
	{Name: "payroll", Keywords: []string{"finance"}, Kind: storm.ActiveObject, ActiveClass: "level-filter", Data: []byte("x")},
}

func evalAll(p Predicate) []string {
	var out []string
	for _, o := range filterObjs {
		if p(o) {
			out = append(out, o.Name)
		}
	}
	return out
}

func TestFilterPredicates(t *testing.T) {
	cases := []struct {
		expr string
		want []string
	}{
		{"keyword=finance", []string{"Report-2001", "payroll"}},
		{"keyword=FINANCE", []string{"Report-2001", "payroll"}}, // case-insensitive
		{"keyword~fin", []string{"Report-2001", "payroll"}},
		{"name=payroll", []string{"payroll"}},
		{"name~report", []string{"Report-2001"}},
		{"data~draft", []string{"draft-memo"}},
		{"size>100", []string{"song.mp3"}},
		{"size<5", []string{"payroll"}},
		{"size=10", []string{"Report-2001"}},
		{"kind=active", []string{"payroll"}},
		{"kind=static", []string{"Report-2001", "draft-memo", "song.mp3"}},
		{"keyword=finance & size<5", []string{"payroll"}},
		{"keyword=jazz | keyword=internal", []string{"draft-memo", "song.mp3"}},
		{"!keyword=finance", []string{"draft-memo", "song.mp3"}},
		{"!(keyword=finance | keyword=jazz)", []string{"draft-memo"}},
		{"keyword=finance & !kind=active", []string{"Report-2001"}},
		// Precedence: & binds tighter than |.
		{"keyword=jazz | keyword=finance & size<5", []string{"song.mp3", "payroll"}},
		{"(keyword=jazz | keyword=finance) & size<5", []string{"payroll"}},
		{`name="draft-memo"`, []string{"draft-memo"}},
		{"!!keyword=jazz", []string{"song.mp3"}},
	}
	for _, c := range cases {
		got := evalAll(mustCompile(t, c.expr))
		if len(got) != len(c.want) {
			t.Errorf("%q -> %v, want %v", c.expr, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q -> %v, want %v", c.expr, got, c.want)
				break
			}
		}
	}
}

func TestFilterSyntaxErrors(t *testing.T) {
	bad := []string{
		"",
		"keyword",
		"keyword=",
		"=jazz",
		"keyword=jazz &",
		"keyword=jazz | | keyword=rock",
		"(keyword=jazz",
		"keyword=jazz)",
		"size>abc",
		"kind=weird",
		"unknownfield=x",
		"name>alpha", // > not supported for strings
		"size~100",   // ~ not supported for size
		`name="unterminated`,
		"keyword=jazz extra",
		"@#$",
	}
	for _, src := range bad {
		if _, err := CompileFilter(src); !errors.Is(err, errFilterSyntax) {
			t.Errorf("CompileFilter(%q) = %v, want errFilterSyntax", src, err)
		}
	}
}

func TestLevelFilterRendering(t *testing.T) {
	obj := &storm.Object{
		Name: "salaries",
		Kind: storm.ActiveObject,
		Data: []byte("public header\n!2 managers only\n!5 executives only\nfooter"),
	}
	f := &LevelFilter{}
	if f.Name() != "level-filter" {
		t.Fatalf("default name = %q", f.Name())
	}

	data, ok := f.Render(obj, 0)
	if !ok || string(data) != "public header\nfooter" {
		t.Fatalf("level 0 render = %q, %v", data, ok)
	}
	data, _ = f.Render(obj, 2)
	if string(data) != "public header\nmanagers only\nfooter" {
		t.Fatalf("level 2 render = %q", data)
	}
	data, _ = f.Render(obj, 9)
	if string(data) != "public header\nmanagers only\nexecutives only\nfooter" {
		t.Fatalf("level 9 render = %q", data)
	}
}

func TestLevelFilterMinLevelDenies(t *testing.T) {
	f := &LevelFilter{FilterName: "classified", MinLevel: 3}
	if f.Name() != "classified" {
		t.Fatalf("name = %q", f.Name())
	}
	obj := &storm.Object{Data: []byte("content")}
	if _, ok := f.Render(obj, 2); ok {
		t.Fatal("below-MinLevel requester was admitted")
	}
	if data, ok := f.Render(obj, 3); !ok || string(data) != "content" {
		t.Fatal("at-MinLevel requester was denied")
	}
}

func TestParseLevelMarkerEdgeCases(t *testing.T) {
	cases := []struct {
		line  string
		level int
		rest  string
	}{
		{"plain", 0, "plain"},
		{"!3 secret", 3, "secret"},
		{"!12 deep", 12, "deep"},
		{"!nonum", 0, "!nonum"},
		{"!", 0, "!"},
		{"!7", 7, ""},
		{"", 0, ""},
	}
	for _, c := range cases {
		level, rest := parseLevelMarker([]byte(c.line))
		if level != c.level || string(rest) != c.rest {
			t.Errorf("parseLevelMarker(%q) = %d,%q want %d,%q", c.line, level, rest, c.level, c.rest)
		}
	}
}

func TestMarkLine(t *testing.T) {
	if MarkLine(0, "x") != "x" || MarkLine(-1, "x") != "x" {
		t.Fatal("MarkLine should pass through level<=0")
	}
	if MarkLine(4, "secret") != "!4 secret" {
		t.Fatalf("MarkLine = %q", MarkLine(4, "secret"))
	}
	// Round trip through the parser.
	level, rest := parseLevelMarker([]byte(MarkLine(4, "secret")))
	if level != 4 || string(rest) != "secret" {
		t.Fatal("MarkLine does not round trip")
	}
}

func TestActiveSetRenderObject(t *testing.T) {
	set := NewActiveSet()
	set.Add(&LevelFilter{})

	static := &storm.Object{Name: "s", Data: []byte("free")}
	if data, ok := set.RenderObject(static, 0); !ok || string(data) != "free" {
		t.Fatal("static object must pass through")
	}

	active := &storm.Object{Name: "a", Kind: storm.ActiveObject, ActiveClass: "level-filter",
		Data: []byte("pub\n!5 sec")}
	data, ok := set.RenderObject(active, 0)
	if !ok || string(data) != "pub" {
		t.Fatalf("active render = %q, %v", data, ok)
	}

	// Unknown active class fails closed.
	orphan := &storm.Object{Name: "o", Kind: storm.ActiveObject, ActiveClass: "missing"}
	if _, ok := set.RenderObject(orphan, 99); ok {
		t.Fatal("missing active node should deny access")
	}

	// Nil set also fails closed for active objects.
	var nilSet *ActiveSet
	if _, ok := nilSet.RenderObject(orphan, 99); ok {
		t.Fatal("nil ActiveSet should deny active objects")
	}
	if data, ok := nilSet.RenderObject(static, 0); !ok || string(data) != "free" {
		t.Fatal("nil ActiveSet should pass static objects")
	}
}

func TestActiveSetNames(t *testing.T) {
	set := NewActiveSet()
	set.Add(&LevelFilter{FilterName: "zeta"})
	set.Add(&LevelFilter{FilterName: "alpha"})
	for _, name := range []string{"alpha", "zeta"} {
		if _, ok := set.Get(name); !ok {
			t.Fatalf("Get(%s) failed", name)
		}
	}
	if _, ok := set.Get("beta"); ok {
		t.Fatal("Get(beta) found an unregistered node")
	}
}

func TestKeywordAgentHonoursActiveObjects(t *testing.T) {
	store := testStore(t)
	store.Put(&storm.Object{
		Name:        "jazz-payroll",
		Keywords:    []string{"jazz"},
		Kind:        storm.ActiveObject,
		ActiveClass: "guard",
		Data:        []byte("pub\n!5 secret"),
	})
	set := NewActiveSet()
	set.Add(&LevelFilter{FilterName: "guard"})

	// Low access: secret line removed.
	a := &KeywordAgent{Query: "jazz"}
	res, err := a.Execute(&Context{Store: store, ActiveNodes: set, AccessLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	var payroll *Result
	for i := range res {
		if res[i].Name == "jazz-payroll" {
			payroll = &res[i]
		}
	}
	if payroll == nil || string(payroll.Data) != "pub" {
		t.Fatalf("active object leaked: %+v", payroll)
	}

	// High access: full content.
	res, _ = a.Execute(&Context{Store: store, ActiveNodes: set, AccessLevel: 9})
	for _, r := range res {
		if r.Name == "jazz-payroll" && string(r.Data) != "pub\nsecret" {
			t.Fatalf("high-access render = %q", r.Data)
		}
	}

	// MinLevel guard denies the object entirely.
	set.Add(&LevelFilter{FilterName: "guard", MinLevel: 3})
	res, _ = a.Execute(&Context{Store: store, ActiveNodes: set, AccessLevel: 0})
	for _, r := range res {
		if r.Name == "jazz-payroll" {
			t.Fatal("denied object still returned")
		}
	}
}
