package xmltree

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	doc, err := ParseString(`<db><dept><name>finance</name><emp sal="95K"><fn>John</fn></emp></dept></db>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "db" {
		t.Fatalf("root = %q", doc.Name)
	}
	emp := doc.Path("dept", "emp")
	if emp == nil {
		t.Fatal("missing emp")
	}
	if v, _ := emp.Attr("sal"); v != "95K" {
		t.Errorf("sal = %q", v)
	}
}

func TestParseDropsInterElementWhitespace(t *testing.T) {
	doc := MustParseString("<a>\n  <b>  keep  me  </b>\n  <c/>\n</a>")
	if len(doc.Children) != 2 {
		t.Fatalf("whitespace text retained: %d children", len(doc.Children))
	}
	if doc.Child("b").Text() != "  keep  me  " {
		t.Errorf("inner text mangled: %q", doc.Child("b").Text())
	}
}

func TestParseCoalescesCharData(t *testing.T) {
	doc := MustParseString(`<a>one &amp; two</a>`)
	if len(doc.Children) != 1 || doc.Children[0].Kind != Text {
		t.Fatalf("expected a single text child, got %d", len(doc.Children))
	}
	if doc.Text() != "one & two" {
		t.Errorf("entity not decoded: %q", doc.Text())
	}
}

func TestParseSkipsCommentsAndPI(t *testing.T) {
	doc := MustParseString(`<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>`)
	if len(doc.Children) != 1 || doc.Children[0].Name != "b" {
		t.Fatalf("comments/PI leaked into tree: %+v", doc.Children)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		``,
		`plain text`,
		`<a><b></a></b>`,
		`<a/><b/>`, // two roots
		`<a>`,      // unclosed
	} {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q): expected error", in)
		}
	}
}

func TestRoundTripCompact(t *testing.T) {
	srcs := []string{
		`<db><dept><name>finance</name><emp><fn>John</fn><ln>Doe</ln></emp></dept></db>`,
		`<a x="1" y="two&quot;three"><b>text &lt;escaped&gt; &amp; kept</b><c/></a>`,
		`<r><p>mixed <i>inline</i> tail</p></r>`,
	}
	for _, src := range srcs {
		doc := MustParseString(src)
		back := MustParseString(doc.XML())
		if !Equal(doc, back) {
			t.Errorf("round trip changed value:\n in: %s\nout: %s", src, doc.XML())
		}
	}
}

func TestRoundTripIndented(t *testing.T) {
	doc := MustParseString(`<db><dept><name>finance</name><emp><fn>John</fn><sal>95K</sal></emp></dept></db>`)
	indented := doc.IndentedXML()
	back := MustParseString(indented)
	if !Equal(doc, back) {
		t.Fatalf("indented round trip changed value:\n%s", indented)
	}
	// The line-oriented property the experiments rely on (§5): every start
	// tag begins its own line.
	lines := strings.Split(strings.TrimSpace(indented), "\n")
	if len(lines) < 5 {
		t.Fatalf("expected line-per-element layout, got %d lines:\n%s", len(lines), indented)
	}
	for _, ln := range lines {
		trimmed := strings.TrimLeft(ln, " ")
		if trimmed == "" {
			t.Errorf("blank line in indented output")
		}
	}
}

// TestQuickSerializeRoundTrip: parse(serialize(tree)) =v tree for random
// trees whose strings exercise escaping. Attribute and text payloads avoid
// raw control characters, as in real scientific data.
func TestQuickSerializeRoundTrip(t *testing.T) {
	payloads := []string{"x", "a & b", "<tag>", `"quoted"`, "tab\tsep", "multi\nline", "]]>"}
	var gen func(rng *rand.Rand, depth int) *Node
	gen = func(rng *rand.Rand, depth int) *Node {
		n := Elem([]string{"a", "b", "c"}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			n.SetAttr("k", payloads[rng.Intn(len(payloads))])
		}
		kids := rng.Intn(3)
		for i := 0; i < kids; i++ {
			if depth > 0 && rng.Intn(2) == 0 {
				n.Append(gen(rng, depth-1))
			} else {
				n.Append(TextNode(payloads[rng.Intn(len(payloads))]))
			}
		}
		return n
	}
	f := func(seed int64) bool {
		doc := gen(rand.New(rand.NewSource(seed)), 3)
		compact, err := ParseString(doc.XML())
		if err != nil || !equalModuloWhitespaceText(doc, compact) {
			return false
		}
		indented, err := ParseString(doc.IndentedXML())
		return err == nil && equalModuloWhitespaceText(doc, indented)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// equalModuloWhitespaceText compares trees ignoring text nodes that are
// whitespace-only (the parser drops them by design, and indented
// serialization of adjacent text nodes may merge them).
func equalModuloWhitespaceText(a, b *Node) bool {
	return Canonical(stripWS(a)) == Canonical(stripWS(b))
}

func stripWS(n *Node) *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	for _, a := range n.Attrs {
		c.Attrs = append(c.Attrs, a.Clone())
	}
	var textRun strings.Builder
	flush := func() {
		if textRun.Len() > 0 {
			c.Children = append(c.Children, TextNode(textRun.String()))
			textRun.Reset()
		}
	}
	for _, ch := range n.Children {
		if ch.Kind == Text {
			if strings.TrimSpace(ch.Data) != "" {
				textRun.WriteString(ch.Data)
			}
			continue
		}
		flush()
		c.Children = append(c.Children, stripWS(ch))
	}
	flush()
	return c
}

func TestNamespacePrefixHandling(t *testing.T) {
	// The archive uses <T> "in a separate namespace" (§2); parsing keeps
	// local names so the archive layer can recognize them.
	doc := MustParseString(`<a xmlns:v="http://example.com/ns"><v:T t="1-3"><b/></v:T></a>`)
	tn := doc.Children[0]
	if tn.Name != "T" {
		t.Fatalf("namespaced element name = %q, want T", tn.Name)
	}
	if v, ok := tn.Attr("t"); !ok || v != "1-3" {
		t.Fatalf("t attr = %q, %v", v, ok)
	}
	// The one name rule, case by case, as the tree serializes.
	for _, tc := range []struct{ what, in, want string }{
		{"a prefix declared as a URL is dropped", `<p:a xmlns:p="http://x/" p:k="1"/>`, `<a k="1"/>`},
		{"an undeclared prefix stays as written", `<p:a p:k="1"><q:b/></p:a>`, `<p:a p:k="1"><q:b/></p:a>`},
		{"a prefix bound to a bare word is replaced by the word", `<p:a xmlns:p="word" p:k="1"/>`, `<word:a word:k="1"/>`},
		{"xml: always resolves", `<a xml:lang="en"><xml:b/></a>`, `<a lang="en"><b/></a>`},
		{"a default URL namespace leaves names alone", `<a xmlns="http://x/" k="1"><b/></a>`, `<a k="1"><b/></a>`},
		{"a default bare word qualifies elements, never attributes", `<a xmlns="word" k="1"><b/></a>`, `<word:a k="1"><word:b/></word:a>`},
		{"a binding ends at its element's end tag", `<r><a xmlns:p="word"><p:b/></a><p:b/></r>`, `<r><a><word:b/></a><p:b/></r>`},
		{"and at a self-closing element", `<r><a xmlns:p="word" p:k="1"/><p:b/></r>`, `<r><a word:k="1"/><p:b/></r>`},
		{"an inner binding shadows the outer until it ends", `<r xmlns:p="one"><a xmlns:p="two"><p:b/></a><p:b/></r>`, `<r><a><two:b/></a><one:b/></r>`},
		{"end tags match the raw name, not the resolved one", `<p:a xmlns:p="http://x/"></p:a>`, `<a/>`},
	} {
		doc, err := ParseString(tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.what, err)
		} else if got := doc.XML(); got != tc.want {
			t.Errorf("%s: %s parses to %s, want %s", tc.what, tc.in, got, tc.want)
		}
	}
	if _, err := ParseString(`<p:a xmlns:p="http://x/"></a>`); err == nil {
		t.Error("an end tag that matches only the resolved name was accepted")
	}
}

// TestCarriageReturnRoundTrip: a carriage return, which only a character
// reference can bring into a document, must leave as one, or the next
// parser turns it into a line feed.
func TestCarriageReturnRoundTrip(t *testing.T) {
	doc := MustParseString(`<a k="p&#13;q">x&#13;y<b>&#13;&#10;</b></a>`)
	if v, _ := doc.Attr("k"); v != "p\rq" || doc.Children[0].Data != "x\ry" {
		t.Fatalf("references not decoded: %q %q", v, doc.Children[0].Data)
	}
	for how, out := range map[string]string{"compact": doc.XML(), "indented": doc.IndentedXML()} {
		back, err := ParseString(out)
		if err != nil || !Equal(doc, back) {
			t.Errorf("%s round trip changed the value (%v): %q", how, err, out)
		}
	}
}

// TestEscapeOutputPinned holds the two escape functions to the bytes they
// have always written (a carriage return aside).
func TestEscapeOutputPinned(t *testing.T) {
	for _, tc := range []struct{ in, text, attr string }{
		{"x", "x", "x"},
		{"a & b", "a &amp; b", "a &amp; b"},
		{"<tag>", "&lt;tag&gt;", "&lt;tag&gt;"},
		{`"quoted"`, `"quoted"`, "&quot;quoted&quot;"},
		{"tab\tsep", "tab\tsep", "tab&#9;sep"},
		{"multi\nline", "multi\nline", "multi&#10;line"},
		{"]]>", "]]&gt;", "]]&gt;"},
		{"", "", ""},
		{"&", "&amp;", "&amp;"},
		{"<<a>>'é€'", "&lt;&lt;a&gt;&gt;'é€'", "&lt;&lt;a&gt;&gt;'é€'"},
		{"cr\rlf", "cr&#13;lf", "cr&#13;lf"},
	} {
		var text, attr strings.Builder
		tw, aw := bufio.NewWriter(&text), bufio.NewWriter(&attr)
		EscapeText(tw, tc.in)
		EscapeAttr(aw, tc.in)
		tw.Flush()
		aw.Flush()
		if text.String() != tc.text || attr.String() != tc.attr {
			t.Errorf("%q escapes to text %q, attr %q; want %q, %q", tc.in, text.String(), attr.String(), tc.text, tc.attr)
		}
	}
}

// TestTokenizerWindowIsBounded: the tokenizer's memory is its window, and
// the window follows the largest single token, not the document.
func TestTokenizerWindowIsBounded(t *testing.T) {
	drain := func(doc io.Reader) *Tokenizer {
		tok := NewTokenizer(doc)
		for {
			if _, err := tok.Next(); err == io.EOF {
				return tok
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	rec := `<rec id="7"><name>some text</name><!-- c --><v>1</v></rec>` + "\n"
	many := io.MultiReader(strings.NewReader("<db>"), strings.NewReader(strings.Repeat(rec, 100_000)), strings.NewReader("</db>"))
	if tok := drain(many); len(tok.buf) != 16<<10 || len(tok.names) != 5 {
		t.Errorf("%d records of %d bytes left a window of %d bytes and %d names", 100_000, len(rec), len(tok.buf), len(tok.names))
	}
	const big = 300_000
	one := strings.NewReader("<db>" + rec + "<t>" + strings.Repeat("x", big) + "</t>" + rec + "</db>")
	if tok := drain(one); len(tok.buf) < big || len(tok.buf) > 4*big {
		t.Errorf("a text run of %d bytes left a window of %d", big, len(tok.buf))
	}
}

// TestParseReturnsReaderError: a reader that fails is not a malformed
// document; its error comes back wrapped, for errors.Is and errors.As.
func TestParseReturnsReaderError(t *testing.T) {
	doc := "<a>" + strings.Repeat("<b>text</b>", 5000) + "</a>"
	_, err := Parse(iotest.TimeoutReader(iotest.HalfReader(strings.NewReader(doc))))
	var syn *SyntaxError
	if !errors.Is(err, iotest.ErrTimeout) || errors.As(err, &syn) {
		t.Fatalf("Parse over a failing reader: %v", err)
	}
}
