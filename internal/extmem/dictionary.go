package extmem

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// dictionary maps tag/attribute names to integers (§6.1: "a document with
// tag names replaced by integers"). One dictionary serves the archive and
// every version. It belongs to the writer and holds no lock: one goroutine
// at a time assigns ids (the store layer admits one add at a time), and
// readers never touch it — each holds the name table its generation was
// published with (snapshot), whose entries are immutable once assigned.
type dictionary struct {
	ids   map[string]int
	names []string
}

func newDictionary() *dictionary {
	return &dictionary{ids: map[string]int{}}
}

func (d *dictionary) id(name string) int {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := len(d.names)
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

func (d *dictionary) name(id int) (string, error) {
	if id < 0 || id >= len(d.names) {
		return "", fmt.Errorf("extmem: tag id %d outside dictionary", id)
	}
	return d.names[id], nil
}

// shortDictf reports a dict.txt that holds fewer names than the key
// directory records: the segments may reference ids it lost, and the next
// add would hand them out again to other names.
func shortDictf(have, want int) error {
	return corruptf("dict.txt holds %d names, the key directory records %d", have, want)
}

// snapshot returns the current name table. Entries are immutable and the
// table is append-only, so the returned slice is a consistent point-in-time
// view that later id() calls never mutate (its capacity is clipped: an
// append goes past it or to a new array).
func (d *dictionary) snapshot() []string {
	return d.names[:len(d.names):len(d.names)]
}

// save writes the dictionary as "id<TAB>name" lines.
func (d *dictionary) save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32*1024)
	for i, n := range d.snapshot() {
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", i, escapeNL(n)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// loadDictionary reads what save wrote: line i is "i<TAB>name". Any other
// line — blank, unscannable, out of order, a repeated name, a last line
// without its newline — is corruption. A dictionary that stopped at such a
// line would load short, and the next add would give its names ids the
// stored tokens already use.
func loadDictionary(r io.Reader) (*dictionary, error) {
	d := newDictionary()
	br := bufio.NewReaderSize(r, 32*1024)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			return d, nil
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("extmem: dictionary: %w", err)
		}
		id := len(d.names)
		idStr, name, ok := strings.Cut(strings.TrimSuffix(line, "\n"), "\t")
		if err == io.EOF || !ok || idStr != strconv.Itoa(id) || name == "" || strings.Contains(name, "\t") {
			return nil, corruptf("dictionary line %d is not \"%d<TAB>name\": %.40q", id+1, id, line)
		}
		if d.id(unescapeNL(name)) != id {
			return nil, corruptf("dictionary line %d repeats the name %.40q", id+1, name)
		}
	}
}

func escapeNL(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	return s
}

func unescapeNL(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func pathString(p []string) string { return "/" + strings.Join(p, "/") }
