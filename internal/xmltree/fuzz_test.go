package xmltree_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/hostile"
	. "xarch/internal/xmltree"
)

// bumpDoc is the shape xarchload posts and the serve-mixed workload
// replays: a small keyed database with one attribute per record.
func bumpDoc(records int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for id := 0; id < records; id++ {
		fmt.Fprintf(&b, `<rec grade="g%d"><id>r%02d</id><v>%d</v></rec>`, id%4, id, id*7)
	}
	b.WriteString("</db>")
	return b.String()
}

// generated returns one document of each datagen generator and the bump
// shape, scaled by n.
func generated(n int) map[string]string {
	return map[string]string{
		"omim":      datagen.NewOMIM(datagen.OMIMConfig{Seed: 1, Records: n}).Next().IndentedXML(),
		"swissprot": datagen.NewSwissProt(datagen.SwissProtConfig{Seed: 2, Records: n}).Next().IndentedXML(),
		"xmark":     datagen.NewXMark(datagen.XMarkConfig{Seed: 3, Items: n, People: n, Categories: 2, OpenAucts: n, ClosedAucts: 1}).Document().XML(),
		"bump":      bumpDoc(8 * n),
	}
}

// edgeDocuments are the literals of parse_test.go and the constructs whose
// handling the tokenizer had to copy from encoding/xml's strict mode
// rather than from the XML recommendation.
var edgeDocuments = []string{
	`<db><dept><name>finance</name><emp sal="95K"><fn>John</fn></emp></dept></db>`,
	"<a>\n  <b>  keep  me  </b>\n  <c/>\n</a>",
	`<a>one &amp; two</a>`,
	`<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>`,
	``, `plain text`, `<a><b></a></b>`, `<a/><b/>`, `<a>`,
	`<a x="1" y="two&quot;three"><b>text &lt;escaped&gt; &amp; kept</b><c/></a>`,
	`<r><p>mixed <i>inline</i> tail</p></r>`,
	`<a xmlns:v="http://example.com/ns"><v:T t="1-3"><b/></v:T></a>`,
	`<a k="p&#13;q">x&#13;y</a>`,
	// CDATA next to text, a comment splitting a run, whitespace around both.
	`<a>one<![CDATA[ <two> & ]]>three</a>`, `<a>be<!-- c -->fore</a>`, `<a> <![CDATA[ ]]> <!-- --> </a>`,
	`<a><![CDATA[]]></a>`, `<a><![CDATA[x]]]]><![CDATA[>]]></a>`, `<a>]]<!-- -->></a>`, `<a>]]></a>`, `<a>]]&gt;</a>`,
	"<a>x\r\ny\rz\r<!-- -->\nw</a>", "<a k=\"l1\r\nl2\tt\nl3\">\r</a>", `<a>&#13;&#10;</a>`, "<a>\u0085\u00a0\u2003</a>",
	// Numeric references at the edges of the character range.
	`<a>&#9;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>`, `<a>&#0;</a>`, `<a>&#8;</a>`, `<a>&#xD800;</a>`,
	`<a>&#xDFFF;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#99999999999999999999999;</a>`,
	`<a>&#0000000000000000000000065;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#X41;</a>`, `<a>&#65</a>`, `<a>&#6a;</a>`,
	`<a>&apos;&quot;&lt;&gt;&amp;</a>`, `<a>&nbsp;</a>`, `<a>&;</a>`, `<a>&amp</a>`, `<a>& </a>`, `<a k="&lt;&#x3c;<"/>`,
	// Outside the root: text is checked and dropped, markup is skipped.
	`<a/>junk`, `junk<a/>`, "\ufeff<a/>", `<a/>&bogus;`, "<a/>\xff", `<a/><![CDATA[x]]>`, `<a/><!-- c --><?p?>`, "<a/>\x00",
	// Declarations, processing instructions, directives.
	`<?xml version="1.1"?><a/>`, `<?xml version='1.0' encoding="ISO-8859-1"?><a/>`, `<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml encoding='UtF-8'?><a/>`, `<a><?xml version="2"?></a>`, `<?xml myversion="3"?><a/>`, `<?xml version=?><a/>`,
	`<?xml version= "1.1"?><a/>`, `<?xml?><a/>`, `<??><a/>`, `<?a:b:c d?><a/>`, `<?1?><a/>`, `<?p ?`, `<?p x?y?><a/>`,
	`<!DOCTYPE a [<!ENTITY e "v"> <!-- > --> <!ELEMENT a (#PCDATA)>]><a>&e;</a>`, `<!DOCTYPE a [<!ENTITY e "v">]><a/>`,
	`<!DOCTYPE a SYSTEM "x>y" '>'><a/>`, `<!><a/>`, `<!>><a/>`, `<!"><a/>`, `<!a<>><a/>`, `<!a<!-><a/>>`, `<!a<!-- -- > --><a/>`,
	`<!- x --><a/>`, `<!----><a/>`, `<!---><a/>`, `<!-- a -- b --><a/>`, `<!-- a ---><a/>`, `<![CDATA[x]]><a/>`, `<![CDAT[x]]><a/>`, `<a><![CDATA[x]]</a>`,
	// Tags.
	`<a b="1"c='2'/>`, `<a b="1" b="2"/>`, `<a b = "1" />`, `<a b/>`, `<a b=1/>`, `<a b="1/>`, `<a / >`, `<a/ >`, `< a/>`, `<a></a >`, `<a></ a>`,
	`<a></a b>`, `<1a/>`, `<a.-1/>`, `<-a/>`, `<:/>`, `<a:/>`, `<:a></:a>`, `<a:b:c/>`, `<a b:c:d="1"/>`, `<a></b>`, `</a>`, `<a/></a>`, `<a>></a>`,
	"<a\tb\n=\r'x>y'\n/>", `<é/>`, `<aé·/>`, `<·a/>`, "<a\xff/>", "<a\xe2\x82/>", `<a é="1"/>`,
	// Names and namespaces.
	`<a xmlns="http://x/"><b/></a>`, `<a xmlns="bare"><b c="1"/></a>`, `<a xmlns=""><b/></a>`, `<p:a xmlns:p="bare" p:k="1" q:k="2"><p:b/></p:a>`,
	`<a><b xmlns:p="bare"><p:c/></b><p:c/></a>`, `<a><b xmlns:p="bare"/><p:c/></a>`, `<a xmlns:p="one"><b xmlns:p="two"><p:c/></b><p:c/></a>`,
	`<a xmlns:p="one" xmlns:p="two"><p:c/></a>`, `<a xml:lang="en"><xml:b/></a>`, `<a xmlns:xml="bare"><xml:b/></a>`, `<xmlns:a xmlns:b="c" xmlns:="d" xmlns="e"/>`,
	`<a xmlns:p="xmlns" p:k="dropped"/>`, `<a xmlns:p="http://x/" p:xmlns="dropped"/>`, `<xmlns/>`, `<a xmlns:p="a&#47;b"><p:c/></a>`, `<p:a xmlns:p="bare"></q:a>`,
	// Truncated multi-byte UTF-8, bytes outside it, characters outside the range.
	"<a>\xe2\x82</a>", "<a>\xe2\x82\xac</a>", "<a>\xc0\x80</a>", "<a>\xed\xa0\x80</a>", "<a>\xef\xbf\xbe</a>", "<a>\xef\xbf\xbd</a>", "<a>\xf4\x90\x80\x80</a>",
	"<a k='\xe2\x82'/>", "<a><![CDATA[\xe2]]>\x82\xac</a>", "<a>\x01</a>", "<a>\x7f</a>", "<!-- \xff\x00 --><?p \xff?><a/>",
}

func seeds() []string {
	s := edgeDocuments
	for _, doc := range generated(2) {
		s = append(s, doc)
	}
	return s
}

// differential holds Parse to the oracle on one input, at the default
// window and at one the document crosses many times, and to the
// hostile-input contract.
func differential(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := parseEncodingXML(bytes.NewReader(data))
	check := func(how string, got *Node, err error) {
		t.Helper()
		var syn *SyntaxError
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s: Parse(%q) = %v, encoding/xml says %v", how, data, err, wantErr)
		case err != nil && (!errors.As(err, &syn) || syn.Line < 1 || syn.Col < 1 || !strings.HasPrefix(err.Error(), "xmltree: parse: line ")):
			t.Fatalf("%s: Parse(%q): %v is not a positioned syntax error", how, data, err)
		case err == nil && Canonical(got) != Canonical(want):
			t.Fatalf("%s: Parse(%q) = %s, encoding/xml builds %s", how, data, Canonical(got), Canonical(want))
		}
	}
	var got *Node
	err := hostile.Check(t, len(data), func() (err error) {
		got, err = Parse(bytes.NewReader(data))
		return err
	})
	check("default window", got, err)
	got, err = ParseWindow(bytes.NewReader(data), 1+len(data)%5)
	check("small window", got, err)
}

// FuzzParseVsEncodingXML: for any byte string the tokenizer and
// encoding/xml's strict mode both reject it or both accept it with
// Canonical-identical trees. No input is excused: there is no behaviour of
// encoding/xml the tokenizer declines to copy, so there is no skip.
func FuzzParseVsEncodingXML(f *testing.F) {
	for _, s := range seeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(differential)
}

func TestParseMatchesEncodingXML(t *testing.T) {
	for _, s := range seeds() {
		differential(t, []byte(s))
	}
}

// TestNameCharactersMatchEncodingXML walks the Basic Multilingual Plane
// (the XML 1.0 name tables hold nothing beyond it) and a few characters
// past it through both parsers, first in a name and later in one.
func TestNameCharactersMatchEncodingXML(t *testing.T) {
	for r := rune(1); r <= 0x10080; r++ {
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseWindow(strings.NewReader(doc), 32)
			_, wantErr := parseEncodingXML(strings.NewReader(doc))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%U in %q: Parse says %v, encoding/xml %v", r, doc, err, wantErr)
			}
		}
	}
}

// TestEveryPrefixIsRejected cuts a document at every offset: each proper
// prefix is an error with a position — never a panic, never a tree.
func TestEveryPrefixIsRejected(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<!DOCTYPE db [<!ELEMENT db ANY>]>` + "\n" +
		`<db xmlns:p="http://x/"><!-- c --><p:rec k="a&amp;b" l='&#x41;'>text &lt; <![CDATA[<raw>]]> é€` + "\r\n" + `</p:rec><e/></db>`
	if _, err := ParseString(doc); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(doc); n++ {
		for _, window := range []int{16 << 10, 3} {
			got, err := ParseWindow(strings.NewReader(doc[:n]), window)
			var syn *SyntaxError
			if got != nil || !errors.As(err, &syn) {
				t.Fatalf("prefix %q (window %d): tree %v, error %v", doc[:n], window, got, err)
			}
		}
	}
}

// TestSyntaxErrorPosition: an error names the line and byte column of the
// offending construct, whatever the window had consumed before it.
func TestSyntaxErrorPosition(t *testing.T) {
	for _, tc := range []struct {
		doc       string
		line, col int
		msg       string
	}{
		{"<a>\n <b>\n  x</a>", 3, 4, "element <b> closed by </a>"},
		{"<a>\r\n\r\n<b k=v/></a>", 3, 6, "unquoted or missing attribute value in element"},
		{"<a>text &bogus; more</a>", 1, 9, "invalid character or entity reference"},
		{"<a>\n<!-- c -->\n<b>é\xff</b></a>", 3, 6, "invalid UTF-8"},
		{"<a k='1'\n   l='<'/>", 2, 7, "unescaped < inside quoted string"},
		{"<a/>\n\n<b/>", 3, 1, "multiple root elements"},
		{"<a>\n<b>", 2, 4, "unexpected EOF"},
		{"", 1, 1, "unexpected EOF"},
	} {
		for _, window := range []int{16 << 10, 2} {
			_, err := ParseWindow(strings.NewReader(tc.doc), window)
			var syn *SyntaxError
			if !errors.As(err, &syn) || syn.Line != tc.line || syn.Col != tc.col || syn.Msg != tc.msg {
				t.Errorf("Parse(%q), window %d: %v; want line %d, col %d: %s", tc.doc, window, err, tc.line, tc.col, tc.msg)
			}
		}
	}
}
