package agent

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"bestpeer/internal/storm"
)

// ActiveNode is the paper's "active element": an executable black box that
// receives an object and the requester's access rights and produces the
// content the requester is allowed to see. The object's owner chooses
// which active node guards it.
type ActiveNode interface {
	// Name identifies the active node; storm.Object.ActiveClass refers
	// to it.
	Name() string
	// Render returns the content visible at the given access level.
	// ok=false denies access to the object entirely.
	Render(obj *storm.Object, accessLevel int) (data []byte, ok bool)
}

// ActiveSet is a node's collection of active nodes. Safe for concurrent
// use.
type ActiveSet struct {
	mu    sync.RWMutex
	nodes map[string]ActiveNode
}

// NewActiveSet returns an empty set.
func NewActiveSet() *ActiveSet {
	return &ActiveSet{nodes: make(map[string]ActiveNode)}
}

// Add registers an active node, replacing any previous one with the same
// name.
func (s *ActiveSet) Add(n ActiveNode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes[n.Name()] = n
}

// Get returns the named active node.
func (s *ActiveSet) Get(name string) (ActiveNode, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[name]
	return n, ok
}

// RenderObject applies an object's active element, if any. Static objects
// pass through unchanged. Active objects whose active node is missing are
// denied — failing closed is the owner-safe default.
func (s *ActiveSet) RenderObject(obj *storm.Object, accessLevel int) ([]byte, bool) {
	if obj.Kind != storm.ActiveObject {
		return obj.Data, true
	}
	if s == nil {
		return nil, false
	}
	n, ok := s.Get(obj.ActiveClass)
	if !ok {
		return nil, false
	}
	return n.Render(obj, accessLevel)
}

// LevelFilter is a built-in active node implementing line-granular access
// control. Object data is interpreted as lines; a line of the form
//
//	!N rest of line
//
// is visible only to requesters with access level >= N. Unmarked lines
// are public. MinLevel additionally gates the whole object.
type LevelFilter struct {
	// FilterName is the registered name; defaults to "level-filter".
	FilterName string
	// MinLevel is the clearance required to see the object at all.
	MinLevel int
}

// Name implements ActiveNode.
func (f *LevelFilter) Name() string {
	if f.FilterName == "" {
		return "level-filter"
	}
	return f.FilterName
}

// Render implements ActiveNode: it strips lines above the requester's
// level and removes the level markers from visible lines.
func (f *LevelFilter) Render(obj *storm.Object, accessLevel int) ([]byte, bool) {
	if accessLevel < f.MinLevel {
		return nil, false
	}
	var out bytes.Buffer
	for _, line := range bytes.Split(obj.Data, []byte("\n")) {
		level, rest := parseLevelMarker(line)
		if level > accessLevel {
			continue
		}
		if out.Len() > 0 {
			out.WriteByte('\n')
		}
		_, _ = out.Write(rest) // bytes.Buffer writes cannot fail
	}
	return out.Bytes(), true
}

// parseLevelMarker splits "!N content" into (N, content). Lines without a
// marker return level 0 and the line unchanged.
func parseLevelMarker(line []byte) (int, []byte) {
	if len(line) < 2 || line[0] != '!' {
		return 0, line
	}
	i := 1
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	if i == 1 {
		return 0, line
	}
	level, err := strconv.Atoi(string(line[1:i]))
	if err != nil {
		return 0, line
	}
	rest := line[i:]
	if len(rest) > 0 && rest[0] == ' ' {
		rest = rest[1:]
	}
	return level, rest
}

// MarkLine formats a line for LevelFilter-guarded objects.
func MarkLine(level int, content string) string {
	if level <= 0 {
		return content
	}
	return fmt.Sprintf("!%d %s", level, content)
}
