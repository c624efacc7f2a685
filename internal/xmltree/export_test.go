package xmltree

import "io"

// ParseWindow is Parse with the tokenizer's window starting at n bytes, so
// that small documents cross it: every token is cut at every offset, met
// short, and scanned again after a refill.
func ParseWindow(r io.Reader, n int) (*Node, error) {
	t := NewTokenizer(r)
	t.buf = make([]byte, n)
	return parse(t)
}
