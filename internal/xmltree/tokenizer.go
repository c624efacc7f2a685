package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Event is what Tokenizer.Next hands out; the tokenizer's Name, Attrs and
// Text fields carry what belongs to it.
type Event uint8

const (
	StartEvent Event = iota + 1 // a start tag: Name and Attrs
	EndEvent                    // the end of the innermost open element
	TextEvent                   // the character data between two tags: Text
)

// Attribute is one attribute of a start tag, its name resolved and its
// value decoded.
type Attribute struct{ Name, Value string }

// SyntaxError reports input that is not the XML the archive accepts, and
// where the tokenizer stopped: a line and a byte column, both from 1.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d, col %d: %s", e.Line, e.Col, e.Msg)
}

// Tokenizer is the archive's one XML front end: a pull tokenizer for
// elements, attributes, character data, CDATA sections and the predefined
// and numeric character references. Comments, processing instructions and
// <!directives> are skipped wherever they stand; an XML declaration naming
// a version other than 1.0 or an encoding other than UTF-8 is rejected.
// Between two tags it hands out one text event — the pieces around
// comments and CDATA coalesced, line ends normalised to \n — unless
// strings.TrimSpace leaves nothing of it, and none outside the root
// element. Names come resolved (see resolve) and interned, and xmlns
// declarations never appear among the attributes.
//
// It enforces what a document needs: tags well formed and matched by their
// raw names, one root element, valid UTF-8 inside XML's character range.
// It holds the names of the open elements and a window of the input that
// grows only to the largest single tag, piece of text, comment or CDATA
// section.
type Tokenizer struct {
	Name  string      // of the start tag Next last returned
	Attrs []Attribute // of that tag; scratch that is the caller's until the next call to Next
	Text  string      // of the text event Next last returned

	r        io.Reader
	buf      []byte // buf[pos:end] is read and not yet consumed
	pos, end int
	rerr     error // what the reader last returned; non-nil means buf[:end] ends the input
	line     int   // newlines before buf[0]
	col      int   // bytes between the last of them and buf[0]

	names     map[string]string // raw names met and found valid, interned
	open      []string          // raw names of the open elements
	ns        []binding         // xmlns declarations in scope, innermost last
	attrs     []Attribute
	text      []byte // the decoded text since the last tag
	raw       []byte // the bytes of the last text event, valid until the next call
	rawText   bool   // hand text out in raw only; Text stays empty (Flat.Read)
	val       []byte // scratch: one attribute value
	selfClose bool   // the start event just returned came from <a/>
	rooted    bool
	err       error
}

// binding is one xmlns:prefix="value" (prefix "" for xmlns=) declared by
// the open element at the given depth.
type binding struct {
	prefix, value string
	depth         int
}

// NewTokenizer returns a tokenizer reading the document r holds.
func NewTokenizer(r io.Reader) *Tokenizer {
	return &Tokenizer{r: r, buf: make([]byte, 16<<10), names: make(map[string]string)}
}

// errMore is what a scan returns when the window ended inside its token
// and input remains: Next reads on and scans the token again, so a scan
// changes no state before it has seen its token whole.
var errMore = errors.New("xmltree: token runs past the window")

var (
	nl       = []byte("\n")
	cdataEnd = []byte("]]>")
)

// more discards the consumed part of the window and fills the rest from
// the reader, doubling the buffer once a token owns half of it so that a
// token of n bytes is scanned O(log n) times.
func (t *Tokenizer) more() {
	done := t.buf[:t.pos]
	if n := bytes.Count(done, nl); n > 0 {
		t.line, t.col = t.line+n, len(done)-bytes.LastIndexByte(done, '\n')-1
	} else {
		t.col += len(done)
	}
	t.end = copy(t.buf, t.buf[t.pos:t.end])
	t.pos = 0
	if t.end > len(t.buf)/2 {
		t.buf = append(t.buf, make([]byte, len(t.buf))...)
	}
	n, err := io.ReadFull(t.r, t.buf[t.end:])
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	t.end, t.rerr = t.end+n, err
}

// errorAt is the error for a complaint about buf[off]. A scan treats the
// byte behind the window as one that fits nowhere (see at), so a complaint
// about it is no verdict yet: it is errMore while input remains, and the
// input ending too early once it does not.
func (t *Tokenizer) errorAt(off int, format string, args ...any) error {
	if off >= t.end {
		if t.rerr == nil {
			return errMore
		} else if t.rerr != io.EOF {
			return t.rerr
		}
		off, format, args = t.end, "unexpected EOF", nil
	}
	seen := t.buf[:off]
	e := &SyntaxError{Line: t.line + bytes.Count(seen, nl) + 1, Col: t.col + off + 1, Msg: fmt.Sprintf(format, args...)}
	if i := bytes.LastIndexByte(seen, '\n'); i >= 0 {
		e.Col = off - i
	}
	return e
}

// at returns b[i], or 0 — a byte no construct has a place for, so every
// scan complains about it at offset i — when the window ends before it.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// Next returns the next event, io.EOF after the root element has closed
// and the input has ended, or the error that ends the parse: a
// *SyntaxError, or what the reader returned.
func (t *Tokenizer) Next() (Event, error) {
	if t.err != nil {
		return 0, t.err
	}
	if t.selfClose {
		t.selfClose = false
		t.pop()
		return EndEvent, nil
	}
	for {
		ev, err := t.scan()
		if err == errMore {
			t.more()
			continue
		}
		if t.err = err; err != nil || ev != 0 {
			return ev, err
		}
	}
}

// scan consumes one piece of the input at pos: text up to the next '<', or
// one markup construct. It returns an event when the piece completes one.
func (t *Tokenizer) scan() (Event, error) {
	b, p := t.buf[:t.end], t.pos
	switch {
	case p == len(b):
		if t.rerr == io.EOF && t.rooted && len(t.open) == 0 {
			return 0, io.EOF
		}
		return 0, t.errorAt(p, "")
	case b[p] != '<':
		n := bytes.IndexByte(b[p:], '<')
		if n < 0 {
			if t.rerr == nil {
				return 0, errMore
			}
			n = len(b) - p
		}
		text, err := t.decode(t.text, p, p+n, inText)
		t.text, t.pos = text, p+n
		return 0, err
	case p+1 == len(b):
		return 0, t.errorAt(p+1, "")
	case b[p+1] == '?':
		return 0, t.procInst(p)
	case b[p+1] == '!':
		return 0, t.bang(p)
	}
	// A tag ends the text run; the tag itself is the next call's.
	if s := t.text; len(s) > 0 {
		t.text = s[:0]
		if len(t.open) > 0 && len(bytes.TrimSpace(s)) > 0 {
			if t.raw = s; !t.rawText {
				t.Text = string(s)
			}
			return TextEvent, nil
		}
	}
	if b[p+1] == '/' {
		return t.endTag(p)
	}
	return t.startTag(p)
}

// nameByte marks the bytes that continue a name scan (every multi-byte
// character does; validName judges those), special the bytes decode cannot
// copy without a look.
var nameByte, special = func() (n, s [256]bool) {
	for c := 0; c < 256; c++ {
		n[c] = c >= utf8.RuneSelf || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
		s[c] = c >= utf8.RuneSelf || c < 0x20 && c != '\t' && c != '\n' || c == '&' || c == '<' || c == ']'
	}
	return
}()

func scanName(b []byte, i int) int {
	for i < len(b) && nameByte[b[i]] {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// validName reports whether the bytes scanName accepted are an XML 1.0
// Name: a Letter, '_' or ':' first, NameChars after it.
func validName(s []byte) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if i == 0 && (c == '-' || c == '.' || '0' <= c && c <= '9') {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		if !inRanges(nameStart, r) && (i == 0 || !inRanges(nameRest, r)) {
			return false
		}
		i += n
	}
	return len(s) > 0
}

// inRanges reports whether r lies in one of tab's [lo, hi] pairs.
func inRanges(tab []uint16, r rune) bool {
	i := sort.Search(len(tab)/2, func(k int) bool { return rune(tab[2*k+1]) >= r })
	return i < len(tab)/2 && rune(tab[2*i]) <= r
}

// name scans the tag or attribute name at buf[i:] and returns the one
// string this document has for it, checking the name the first time it is
// met, and the offset behind it.
func (t *Tokenizer) name(i int, what string) (string, int, error) {
	b := t.buf[:t.end]
	j := scanName(b, i)
	if j == i || j == len(b) {
		return "", j, t.errorAt(j, "expected %s", what)
	}
	raw := b[i:j]
	s, ok := t.names[string(raw)]
	if !ok {
		if !validName(raw) || bytes.Count(raw, []byte(":")) > 1 {
			return "", j, t.errorAt(i, "invalid XML name %q", raw)
		}
		s = string(raw)
		t.names[s] = s
	}
	return s, j, nil
}

// resolve turns a raw name into the name the archive stores: the local
// name, qualified only when its prefix (for an element, also the default
// namespace) is bound to a word that cannot be a namespace URL — no ':' or
// '/' — in which case that word is the qualifier, or is not bound at all,
// in which case the name stays as written. xml: always resolves, xmlns
// names stay as written, and no default applies to an attribute.
func (t *Tokenizer) resolve(raw string, elem bool) string {
	prefix, local := "", raw
	if i := strings.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		prefix, local = raw[:i], raw[i+1:]
	}
	switch {
	case prefix == "xmlns", raw == "xmlns", prefix == "" && !elem:
		return raw
	case prefix == "xml":
		return local
	}
	for i := len(t.ns) - 1; i >= 0; i-- {
		if b := &t.ns[i]; b.prefix != prefix {
			continue
		} else if b.value == "" || strings.ContainsAny(b.value, ":/") {
			return local
		} else {
			return b.value + ":" + local
		}
	}
	return raw
}

func (t *Tokenizer) startTag(p int) (Event, error) {
	if t.rooted && len(t.open) == 0 {
		return 0, t.errorAt(p, "multiple root elements")
	}
	b := t.buf[:t.end]
	raw, i, err := t.name(p+1, "element name after <")
	if err != nil {
		return 0, err
	}
	attrs, selfClose := t.attrs[:0], false
	for {
		i = skipSpace(b, i)
		if at(b, i) == '>' {
			break
		}
		if at(b, i) == '/' {
			if i++; at(b, i) != '>' {
				return 0, t.errorAt(i, "expected /> in element")
			}
			selfClose = true
			break
		}
		var a Attribute
		if a.Name, i, err = t.name(i, "attribute name in element"); err != nil {
			return 0, err
		}
		if i = skipSpace(b, i); at(b, i) != '=' {
			return 0, t.errorAt(i, "attribute name without = in element")
		}
		i = skipSpace(b, i+1)
		if at(b, i) != '"' && at(b, i) != '\'' {
			return 0, t.errorAt(i, "unquoted or missing attribute value in element")
		}
		n := bytes.IndexByte(b[i+1:], b[i])
		if n < 0 {
			return 0, t.errorAt(len(b), "")
		}
		if t.val, err = t.decode(t.val[:0], i+1, i+1+n, inAttr); err != nil {
			return 0, err
		}
		a.Value = string(t.val)
		attrs = append(attrs, a)
		i += n + 2
	}
	// The tag's namespace declarations are in scope for its own names.
	t.open = append(t.open, raw)
	for _, a := range attrs {
		if a.Name == "xmlns" {
			t.ns = append(t.ns, binding{"", a.Value, len(t.open)})
		} else if prefix, ok := strings.CutPrefix(a.Name, "xmlns:"); ok && prefix != "" {
			t.ns = append(t.ns, binding{prefix, a.Value, len(t.open)})
		}
	}
	t.Name, t.Attrs = t.resolve(raw, true), attrs[:0]
	for _, a := range attrs {
		if a.Name = t.resolve(a.Name, false); a.Name != "xmlns" && !strings.HasPrefix(a.Name, "xmlns:") {
			t.Attrs = append(t.Attrs, a)
		}
	}
	t.attrs, t.pos, t.selfClose, t.rooted = attrs, i+1, selfClose, true
	return StartEvent, nil
}

func (t *Tokenizer) endTag(p int) (Event, error) {
	b := t.buf[:t.end]
	j := scanName(b, p+2)
	i := skipSpace(b, j)
	switch name := b[p+2 : j]; {
	case at(b, i) != '>':
		return 0, t.errorAt(i, "expected > to close </%s", name)
	case len(t.open) == 0:
		return 0, t.errorAt(p, "unexpected end element </%s>", name)
	case t.open[len(t.open)-1] != string(name):
		return 0, t.errorAt(p, "element <%s> closed by </%s>", t.open[len(t.open)-1], name)
	}
	t.pos = i + 1
	t.pop()
	return EndEvent, nil
}

// pop closes the innermost element and ends the scope of its declarations.
func (t *Tokenizer) pop() {
	n := len(t.ns)
	for n > 0 && t.ns[n-1].depth == len(t.open) {
		n--
	}
	t.ns, t.open = t.ns[:n], t.open[:len(t.open)-1]
}

// procInst skips <?target ...?>. Wherever it stands, one whose target is
// xml is held to version 1.0 and UTF-8.
func (t *Tokenizer) procInst(p int) error {
	b := t.buf[:t.end]
	j := scanName(b, p+2)
	n := bytes.Index(b[j:], []byte("?>"))
	switch target := b[p+2 : j]; {
	case n < 0:
		return t.errorAt(len(b), "")
	case !validName(target):
		return t.errorAt(p, "expected target name after <?")
	case string(target) == "xml":
		decl := string(b[j : j+n])
		if v := pseudoAttr(decl, "version="); v != "" && v != "1.0" {
			return t.errorAt(p, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := pseudoAttr(decl, "encoding="); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return t.errorAt(p, "unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	t.pos = j + n + 2
	return nil
}

// pseudoAttr returns the quoted value behind the first occurrence of param
// (which ends in '=') that a quote follows, "" when there is none.
func pseudoAttr(s, param string) string {
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		s = s[k+len(param):]
		if q := s[0]; q == '\'' || q == '"' {
			if j := strings.IndexByte(s[1:], q); j >= 0 {
				return s[1 : 1+j]
			}
			return ""
		}
		s = s[1:]
	}
}

// bang handles what opens with "<!": a comment or directive to skip, or a
// CDATA section, which is text.
func (t *Tokenizer) bang(p int) (err error) {
	b := t.buf[:t.end]
	switch {
	case p+2 >= len(b):
		return t.errorAt(len(b), "")
	case b[p+2] == '-':
		if at(b, p+3) != '-' {
			return t.errorAt(p+3, "invalid sequence <!- not part of <!--")
		}
		n := bytes.Index(b[p+4:], []byte("--"))
		if n < 0 {
			return t.errorAt(len(b), "")
		}
		if at(b, p+4+n+2) != '>' {
			return t.errorAt(p+4+n+2, `invalid sequence "--" not allowed in comments`)
		}
		t.pos = p + 4 + n + 3
	case b[p+2] == '[':
		for k, c := range []byte("CDATA[") {
			if at(b, p+3+k) != c {
				return t.errorAt(p+3+k, "invalid <![ sequence")
			}
		}
		n := bytes.Index(b[p+9:], cdataEnd)
		if n < 0 {
			return t.errorAt(len(b), "")
		}
		t.text, err = t.decode(t.text, p+9, p+9+n, inCDATA)
		t.pos = p + 9 + n + 3
	default:
		n := directiveEnd(b[p+3:])
		if n == 0 {
			return t.errorAt(len(b), "")
		}
		t.pos = p + 3 + n
	}
	return err
}

// directiveEnd returns the length of the directive body b through its
// closing '>', 0 if b ends first: the '>' outside quotes that no earlier
// '<' accounts for, with <!-- comments --> inside passed over.
func directiveEnd(b []byte) int {
	var quote byte
	depth := 0
	for i := 0; i < len(b); {
		c := b[i]
		i++
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			if depth == 0 {
				return i
			}
			depth--
		case c == '<':
			open := []byte("!--")
			if rest := b[i:]; len(rest) < len(open) && bytes.HasPrefix(open, rest) {
				return 0
			} else if !bytes.HasPrefix(rest, open) {
				depth++
			} else if n := bytes.Index(rest[3:], []byte("-->")); n < 0 {
				return 0
			} else {
				i += 3 + n + 3
			}
		}
	}
	return 0
}

// Where character data stands decides what decode lets through.
const (
	inText  = iota // "]]>" is an error
	inCDATA        // '&' and '<' are themselves
	inAttr         // '<' is an error
)

// decode appends to dst the characters buf[off:end] stands for: references
// replaced, \r\n and \r turned into \n, and every character checked to be
// valid UTF-8 inside XML's character range.
func (t *Tokenizer) decode(dst []byte, off, end, where int) ([]byte, error) {
	s := t.buf[off:end]
	run := 0 // s[run:i] has nothing to replace
	for i := 0; i < len(s); {
		c := s[i]
		if !special[c] {
			i++
			continue
		}
		switch {
		case c == '\r':
			dst = append(append(dst, s[run:i]...), '\n')
			if i++; i < len(s) && s[i] == '\n' {
				i++
			}
			run = i
		case c == '&' && where != inCDATA:
			r, n := reference(s[i+1:])
			if n == 0 {
				return dst, t.errorAt(off+i, "invalid character or entity reference")
			}
			dst = utf8.AppendRune(append(dst, s[run:i]...), r)
			i += 1 + n
			run = i
		case c == '<' && where == inAttr:
			return dst, t.errorAt(off+i, "unescaped < inside quoted string")
		case c == ']' && where == inText && bytes.HasPrefix(s[i:], cdataEnd):
			return dst, t.errorAt(off+i, "unescaped ]]> not in CDATA section")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, t.errorAt(off+i, "invalid UTF-8")
			}
			if !inCharRange(r) {
				return dst, t.errorAt(off+i, "illegal character code %U", r)
			}
			i += n
		case c < 0x20:
			return dst, t.errorAt(off+i, "illegal character code %U", rune(c))
		default:
			i++
		}
	}
	return append(dst, s[run:]...), nil
}

// inCharRange is the Char production of XML 1.0 §2.2.
func inCharRange(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

var predefined = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference decodes the reference s continues after its '&' — one of the
// five predefined entities, &#decimal; or &#xhex; — and returns the
// character and the length through the ';', 0 if s is none of them or
// names no XML character. A surrogate code point decodes to U+FFFD.
func reference(s []byte) (rune, int) {
	if len(s) == 0 || s[0] != '#' {
		for _, e := range predefined {
			if bytes.HasPrefix(s, []byte(e.name)) {
				return e.r, len(e.name)
			}
		}
		return 0, 0
	}
	base, i := 10, 1
	if len(s) > 1 && s[1] == 'x' {
		base, i = 16, 2
	}
	j := bytes.IndexByte(s, ';')
	if j < i {
		return 0, 0
	}
	n, err := strconv.ParseUint(string(s[i:j]), base, 32)
	r := rune(n)
	if 0xD800 <= n && n <= 0xDFFF {
		r = utf8.RuneError
	}
	if err != nil || n > utf8.MaxRune || !inCharRange(r) {
		return 0, 0
	}
	return r, j + 1
}
