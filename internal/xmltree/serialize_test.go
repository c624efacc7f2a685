package xmltree

import "testing"

// TestWriteOutputPinned holds Node.Write to the bytes it has always
// written, compact and indented, for every node shape it accepts.
func TestWriteOutputPinned(t *testing.T) {
	m := MustParseString
	for _, tc := range []struct {
		name              string
		n                 *Node
		compact, indented string
	}{
		{"empty element", m(`<a/>`), `<a/>`, "<a/>\n"},
		{"attributes only", m(`<a x="1" y="&quot;2&#10;"/>`), `<a x="1" y="&quot;2&#10;"/>`, "<a x=\"1\" y=\"&quot;2&#10;\"/>\n"},
		{"text only", m(`<a>t &amp; u</a>`), `<a>t &amp; u</a>`, "<a>t &amp; u</a>\n"},
		{"mixed content", m(`<a x="1">t<b>u</b>v<c/></a>`), `<a x="1">t<b>u</b>v<c/></a>`, "<a x=\"1\">t<b>u</b>v<c/></a>\n"},
		{"text after element", m(`<a><b/>t</a>`), `<a><b/>t</a>`, "<a><b/>t</a>\n"},
		{"nested", m(`<a><b y="2"><c/><d><e/></d></b><f/></a>`), `<a><b y="2"><c/><d><e/></d></b><f/></a>`,
			"<a>\n  <b y=\"2\">\n    <c/>\n    <d>\n      <e/>\n    </d>\n  </b>\n  <f/>\n</a>\n"},
		{"nested with text below", m(`<a><b><c>t</c></b><d>u<e>v</e></d></a>`), `<a><b><c>t</c></b><d>u<e>v</e></d></a>`,
			"<a>\n  <b>\n    <c>t</c>\n  </b>\n  <d>u<e>v</e></d>\n</a>\n"},
		{"empty text child", Elem("_attr", AttrNode("n", "x"), TextNode("")), `<_attr n="x"></_attr>`, "<_attr n=\"x\"></_attr>\n"},
		{"attr items in a group", Elem("T", AttrNode("t", "1-3"), Elem("_attr", AttrNode("n", "x"), TextNode("")), Elem("_attr", AttrNode("n", "y"), TextNode("v<"))),
			`<T t="1-3"><_attr n="x"></_attr><_attr n="y">v&lt;</_attr></T>`,
			"<T t=\"1-3\">\n  <_attr n=\"x\"></_attr>\n  <_attr n=\"y\">v&lt;</_attr>\n</T>\n"},
		{"bare text", TextNode("a<b&c"), `a&lt;b&amp;c`, "a&lt;b&amp;c\n"},
		{"bare attribute", AttrNode("k", `v"1`), `@k="v&quot;1"`, `@k="v&quot;1"`},
	} {
		if got := tc.n.XML(); got != tc.compact {
			t.Errorf("%s: compact %q, want %q", tc.name, got, tc.compact)
		}
		if got := tc.n.IndentedXML(); got != tc.indented {
			t.Errorf("%s: indented %q, want %q", tc.name, got, tc.indented)
		}
	}
}
