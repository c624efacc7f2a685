package xmltree

import (
	"io"
	"strings"
)

// CanonWriter is the sink of streaming canonicalization: anything that can
// take bytes, single bytes and strings without forcing intermediate
// allocations. *strings.Builder, *bufio.Writer and the streaming hashers
// of internal/fingerprint all satisfy it.
type CanonWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// Canonical returns the canonical string form of the value rooted at n
// (§4.3 of the paper, in the spirit of W3C Canonical XML): a deterministic
// serialization with the property
//
//	Canonical(a) == Canonical(b)  ⇔  Equal(a, b)
//
// Attributes are sorted by (name, value); text is escaped so that markup
// characters cannot collide with structure; kinds are distinguished so a
// text node "a" never collides with an element <a/>.
func Canonical(n *Node) string {
	var b strings.Builder
	WriteCanonicalTo(&b, n)
	return b.String()
}

// AppendBuffer adapts an append-style byte buffer to CanonWriter. Hot
// paths keep one per worker and Reset it between values, so streaming a
// canonical form costs no allocation beyond the buffer's steady state.
type AppendBuffer struct{ Buf []byte }

// Reset empties the buffer, keeping its capacity.
func (w *AppendBuffer) Reset() { w.Buf = w.Buf[:0] }

// String returns the buffered bytes as a freshly allocated string.
func (w *AppendBuffer) String() string { return string(w.Buf) }

func (w *AppendBuffer) Write(p []byte) (int, error) {
	w.Buf = append(w.Buf, p...)
	return len(p), nil
}

func (w *AppendBuffer) WriteByte(b byte) error {
	w.Buf = append(w.Buf, b)
	return nil
}

func (w *AppendBuffer) WriteString(s string) (int, error) {
	w.Buf = append(w.Buf, s...)
	return len(s), nil
}

// WriteCanonicalTo streams the canonical form of n into w with no
// intermediate buffering or tree conversion.
func WriteCanonicalTo(w CanonWriter, n *Node) {
	switch n.Kind {
	case Text:
		w.WriteByte('t')
		w.WriteByte('(')
		EscapeCanonical(w, n.Data)
		w.WriteByte(')')
	case Attr:
		w.WriteByte('a')
		w.WriteByte('(')
		EscapeCanonical(w, n.Name)
		w.WriteByte('=')
		EscapeCanonical(w, n.Data)
		w.WriteByte(')')
	case Element:
		w.WriteByte('e')
		w.WriteByte('(')
		EscapeCanonical(w, n.Name)
		for _, a := range n.sortedAttrs() {
			WriteCanonicalTo(w, a)
		}
		for _, c := range n.Children {
			WriteCanonicalTo(w, c)
		}
		w.WriteByte(')')
	}
}

// DisplayFromCanonical derives the human-readable display form of a value
// from its canonical form: attribute values and text render as their data,
// a text-only element renders as its concatenated text, and anything
// structured falls back to the canonical form itself. It is the single
// display derivation shared by key annotation (which holds the node) and
// the external engine's streaming query path (which holds only the
// canonical string), so history selectors match identically on both.
func DisplayFromCanonical(canon string) string {
	kind, inner, ok := splitCanonical(canon)
	if !ok {
		return canon
	}
	switch kind {
	case 't':
		return unescapeCanonical(inner)
	case 'a':
		if eq := unescapedIndex(inner, '='); eq >= 0 {
			return unescapeCanonical(inner[eq+1:])
		}
		return canon
	case 'e':
		// e(NAME item...) — the name runs to the first unescaped '('
		// minus its one-byte kind marker.
		open := unescapedIndex(inner, '(')
		if open <= 0 {
			return canon // element with no children: structured fallback
		}
		items := inner[open-1:]
		var b strings.Builder
		for len(items) > 0 {
			kind, body, rest, ok := takeCanonicalItem(items)
			if !ok || kind != 't' {
				return canon // attributes or element children: structured
			}
			b.WriteString(unescapeCanonical(body))
			items = rest
		}
		return b.String()
	}
	return canon
}

// splitCanonical splits "k(inner)" into its kind byte and inner bytes.
func splitCanonical(s string) (kind byte, inner string, ok bool) {
	if len(s) < 3 || s[1] != '(' || s[len(s)-1] != ')' {
		return 0, "", false
	}
	return s[0], s[2 : len(s)-1], true
}

// unescapedIndex returns the index of the first unescaped occurrence of c.
func unescapedIndex(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case c:
			return i
		}
	}
	return -1
}

// takeCanonicalItem splits the first "k(...)" item off a canonical item
// list, balancing unescaped parentheses.
func takeCanonicalItem(s string) (kind byte, body, rest string, ok bool) {
	if len(s) < 3 || s[1] != '(' {
		return 0, "", "", false
	}
	depth := 0
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[0], s[2:i], s[i+1:], true
			}
		}
	}
	return 0, "", "", false
}

// unescapeCanonical reverses EscapeCanonical.
func unescapeCanonical(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// EscapeCanonical writes s with the canonical structural bytes escaped, so
// strings cannot forge structure. It is shared by every producer of
// canonical bytes (xmltree, anode, extmem) so their forms stay identical.
func EscapeCanonical(w CanonWriter, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '=', '\\':
			w.WriteString(s[start:i])
			w.WriteByte('\\')
			w.WriteByte(s[i])
			start = i + 1
		}
	}
	w.WriteString(s[start:])
}
