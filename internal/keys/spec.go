package keys

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Key is a relative key (Context, (Target, {KeyPaths...})) — §3 and
// Appendix A.5. Context is an absolute path ("/" = the document root);
// Target is relative to a context node; every node reached by
// Context/Target is identified among its context's targets by the values
// of its KeyPaths. An empty KeyPaths list ({}) asserts that at most one
// target exists per context node. A single empty key path ({\e}) keys the
// node by its own value.
type Key struct {
	Context  Path
	Target   Path
	KeyPaths []Path
	// Implied marks keys added by normalization: for every key
	// (Q, (Q', {P1..Pk})) with non-empty Pi, the key (Q/Q', (Pi, {})) is
	// implied (§3) and always assumed part of the specification.
	Implied bool

	// Compiled by Spec.Normalize, so no per-node walk rebuilds them.
	nodePath Path     // Context/Target
	pattern  string   // nodePath.Absolute()
	kpOrder  []int    // indices of KeyPaths sorted by name (§4.2)
	kpSorted []string // KeyPaths[i].String() in kpOrder
}

// NodePath returns Context/Target, the keyed path this key defines. For a
// key of a normalized Spec it is precomputed; callers must not modify it.
func (k *Key) NodePath() Path {
	if k.nodePath != nil {
		return k.nodePath
	}
	return k.Context.Concat(k.Target)
}

// Pattern returns NodePath().Absolute(): the name of the keyed path
// pattern. The accessors from here down are valid on the keys a normalized
// Spec hands out (AllKeys, KeyFor, Cursor.Key).
func (k *Key) Pattern() string { return k.pattern }

// KeyPathOrder lists the indices of KeyPaths in the lexicographic order of
// their names — the order key values are compared in (§4.2).
func (k *Key) KeyPathOrder() []int { return k.kpOrder }

// SortedKeyPathNames returns the key-path names (KeyPaths[i].String()) in
// KeyPathOrder. The slice is shared by every caller and must not be
// modified.
func (k *Key) SortedKeyPathNames() []string { return k.kpSorted }

// compile fills the precomputed fields.
func (k *Key) compile() {
	k.nodePath = k.Context.Concat(k.Target)
	k.pattern = k.nodePath.Absolute()
	names := make([]string, len(k.KeyPaths))
	k.kpOrder = make([]int, len(k.KeyPaths))
	for i, kp := range k.KeyPaths {
		names[i] = kp.String()
		k.kpOrder[i] = i
	}
	sort.SliceStable(k.kpOrder, func(a, b int) bool {
		return names[k.kpOrder[a]] < names[k.kpOrder[b]]
	})
	k.kpSorted = make([]string, len(k.kpOrder))
	for out, i := range k.kpOrder {
		k.kpSorted[out] = names[i]
	}
}

// String renders the key in the Appendix B syntax.
func (k *Key) String() string {
	var kps []string
	for _, p := range k.KeyPaths {
		kps = append(kps, p.String())
	}
	return fmt.Sprintf("(%s, (%s, {%s}))", k.Context.Absolute(), k.Target.String(), strings.Join(kps, ", "))
}

// Spec is a key specification: the list of keys a document must satisfy.
// Construct via ParseSpec or assemble Keys and call Normalize; after
// appending to Keys, call Normalize again. A normalized Spec is safe for
// concurrent use.
type Spec struct {
	Keys []*Key

	mu sync.Mutex              // serializes Normalize
	m  atomic.Pointer[matcher] // the compiled form of the last Normalize
}

// ParseSpec reads a specification in the Appendix B textual format: one
// key per line, e.g.
//
//	(/ROOT/Record, (Contributors, {Name, CNtype, Date/Month}))
//	(/ROOT/Record, (AlternativeTitle, {\e}))
//	# comment lines and blank lines are ignored
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, err := parseKeyLine(line)
		if err != nil {
			return nil, fmt.Errorf("keys: line %d: %w", lineNo, err)
		}
		spec.Keys = append(spec.Keys, k)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("keys: read spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseSpecString is ParseSpec over a string.
func ParseSpecString(s string) (*Spec, error) {
	return ParseSpec(strings.NewReader(s))
}

// MustParseSpec panics on error; for tests and embedded specifications.
func MustParseSpec(s string) *Spec {
	spec, err := ParseSpecString(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// parseKeyLine parses "(CONTEXT, (TARGET, {P1, P2, ...}))".
func parseKeyLine(line string) (*Key, error) {
	s := strings.TrimSpace(line)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("malformed key %q", line)
	}
	s = s[1 : len(s)-1] // CONTEXT, (TARGET, {...})
	comma := strings.Index(s, ",")
	if comma < 0 {
		return nil, fmt.Errorf("missing context separator in %q", line)
	}
	ctxStr := strings.TrimSpace(s[:comma])
	if !strings.HasPrefix(ctxStr, "/") {
		return nil, fmt.Errorf("context %q must be absolute", ctxStr)
	}
	rest := strings.TrimSpace(s[comma+1:])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("malformed target part in %q", line)
	}
	rest = rest[1 : len(rest)-1] // TARGET, {...}
	brace := strings.Index(rest, "{")
	if brace < 0 || !strings.HasSuffix(rest, "}") {
		return nil, fmt.Errorf("missing key-path set in %q", line)
	}
	targetStr := strings.TrimSpace(rest[:brace])
	targetStr = strings.TrimSuffix(targetStr, ",")
	targetStr = strings.TrimSpace(targetStr)
	kpList := strings.TrimSpace(rest[brace+1 : len(rest)-1])

	ctx, err := ParsePath(ctxStr)
	if err != nil {
		return nil, err
	}
	target, err := ParsePath(targetStr)
	if err != nil {
		return nil, err
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("empty target in %q", line)
	}
	var kps []Path
	if kpList != "" {
		for _, part := range strings.Split(kpList, ",") {
			p, err := ParsePath(part)
			if err != nil {
				return nil, err
			}
			kps = append(kps, p)
		}
	}
	return &Key{Context: ctx, Target: target, KeyPaths: kps}, nil
}

// Normalize adds the implied keys (§3), deduplicates, checks the spec
// against the structural assumptions of the paper, computes frontier
// paths and compiles the matcher behind KeyFor, IsFrontier and Cursor. It
// is idempotent; calling it again recompiles from the current Keys (it
// rewrites the keys' compiled fields, so not while others use the Spec).
func (s *Spec) Normalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.compile()
	if err != nil {
		return err
	}
	s.m.Store(m)
	return nil
}

// compile builds the matcher for the current Keys. Callers hold s.mu.
func (s *Spec) compile() (*matcher, error) {
	all := make([]*Key, 0, len(s.Keys)*2)
	seen := map[string]*Key{}
	add := func(k *Key) {
		if prev, ok := seen[k.pattern]; ok {
			// Duplicate keyed path: identical key-path sets are a benign
			// repetition; keep the explicit (non-implied) one.
			if prev.Implied && !k.Implied {
				*prev = *k
			}
			return
		}
		seen[k.pattern] = k
		all = append(all, k)
	}
	for _, k := range s.Keys {
		if len(k.Target) == 0 {
			return nil, fmt.Errorf("keys: key %s has empty target", k)
		}
		k.compile()
		add(k)
	}
	for _, k := range s.Keys {
		for _, p := range k.KeyPaths {
			if len(p) == 0 {
				continue
			}
			implied := &Key{Context: k.nodePath, Target: p, Implied: true}
			implied.compile()
			add(implied)
		}
	}
	// Deterministic order: shallower paths first, then lexicographic.
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if len(a.nodePath) != len(b.nodePath) {
			return len(a.nodePath) < len(b.nodePath)
		}
		return a.pattern < b.pattern
	})
	if err := checkAssumptions(all); err != nil {
		return nil, err
	}

	// Frontier paths: keyed paths that are not compatible proper prefixes
	// of other keyed paths (§3).
	m := &matcher{keyed: all}
	isFrontier := make([]bool, len(all))
	for i, k := range all {
		isFrontier[i] = true
		for _, other := range all {
			if k.nodePath.CompatiblePrefixOf(other.nodePath) {
				isFrontier[i] = false
				break
			}
		}
		if isFrontier[i] {
			m.frontier = append(m.frontier, k.nodePath)
		}
	}
	if err := m.build(isFrontier); err != nil {
		return nil, err
	}
	return m, nil
}

// checkAssumptions enforces the §3 restrictions on the key structure.
func checkAssumptions(keyed []*Key) error {
	paths := make([]Path, len(keyed))
	for i, k := range keyed {
		paths[i] = k.nodePath
	}
	for _, k := range keyed {
		// Contexts must themselves be keyed (or the root): keys are
		// "insertion-friendly", defined top-down relative to ancestors.
		if len(k.Context) > 0 {
			found := false
			for _, p := range paths {
				if p.Compatible(k.Context) || p.Equal(k.Context) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("keys: context %s of key %s is not itself keyed", k.Context.Absolute(), k)
			}
		}
		// Restriction 3: nodes beneath a key path cannot be keyed. A keyed
		// path may equal Context/Target/Pi (that is the implied key) but
		// must not extend strictly beyond it. The empty key path ({\e})
		// keys the node by its whole value, so nothing below the node
		// itself may be keyed.
		for _, p := range k.KeyPaths {
			kp := k.nodePath.Concat(p)
			for _, other := range paths {
				if kp.CompatiblePrefixOf(other) {
					return fmt.Errorf("keys: keyed path %s lies beneath key path %s of %s",
						other.Absolute(), kp.Absolute(), k)
				}
			}
		}
	}
	return nil
}

// matcher returns the compiled form, normalizing a hand-assembled Spec
// on first use (and panicking if it is invalid, as a lazy path must).
func (s *Spec) matcher() *matcher {
	if m := s.m.Load(); m != nil {
		return m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.m.Load(); m != nil {
		return m
	}
	m, err := s.compile()
	if err != nil {
		panic(err)
	}
	s.m.Store(m)
	return m
}

// AllKeys returns all keys including implied ones, in deterministic order.
func (s *Spec) AllKeys() []*Key { return s.matcher().keyed }

// KeyFor returns the key whose Context/Target pattern matches the concrete
// path, or nil if the path is not keyed. Where several patterns match, the
// first in AllKeys order wins.
func (s *Spec) KeyFor(concrete Path) *Key { return s.matcher().at(concrete).Key() }

// IsKeyed reports whether the concrete path is a keyed path.
func (s *Spec) IsKeyed(concrete Path) bool { return s.KeyFor(concrete) != nil }

// FrontierPaths returns the frontier path patterns: keyed paths that are
// not proper prefixes of other keyed paths. Frontier nodes are the deepest
// keyed nodes; below them, conventional diff/weave techniques apply (§3).
func (s *Spec) FrontierPaths() []Path { return s.matcher().frontier }

// IsFrontier reports whether the concrete path is a frontier path.
func (s *Spec) IsFrontier(concrete Path) bool { return s.matcher().at(concrete).Frontier() }

// String renders the full normalized specification, implied keys last.
func (s *Spec) String() string {
	var b strings.Builder
	for _, k := range s.AllKeys() {
		if k.Implied {
			continue
		}
		b.WriteString(k.String())
		b.WriteByte('\n')
	}
	return b.String()
}
