package extmem

// The external sort of §6.2, for a version streamed in that does not fit
// the memory budget: the document is read in pieces, each the root element
// and a run of whole children of the root, no larger than the budget
// allows (a child that is larger still comes whole); each piece is sorted
// in the slab like any other version (treesort.go) and its sorted children
// are written to a run file; one multi-way merge of the runs at level 2
// writes the sorted version. Sequential: read, sort and write one piece,
// then the next, then the merge.

import (
	"fmt"
	"slices"

	"xarch/internal/fsio"
	"xarch/internal/xmltree"
)

// SortStats reports the work of one external sort (§6.2).
type SortStats struct {
	Runs int // run files written; 0 for a version sorted in memory in one piece
}

// scratchWriter is a scratch file being written as a token stream.
type scratchWriter struct {
	*tokenWriter
	f fsio.File
}

func createScratch(fs fsio.FS, path string) (*scratchWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	return &scratchWriter{newTokenWriter(f), f}, nil
}

// finish flushes the stream and closes the file.
func (w *scratchWriter) finish() error {
	err := w.flush()
	w.release()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cut reports whether a streamed version's piece in the slab is to end
// before the next child of the root: once it holds the budget's worth of
// nodes, unless its root must be read whole — a frontier root, whose
// content the merge holds in memory anyway, or a root whose key has key
// paths, which is complete only at the root's close. A root the
// specification does not key is cut too: its first piece fails the sort.
func (ar *Archiver) cut(d *xmltree.Flat) bool {
	if len(d.Nodes) < ar.cfg.Budget {
		return false
	}
	cur := ar.spec.Cursor().Child(d.Name(0))
	k := cur.Key()
	return k == nil || len(k.KeyPaths) == 0 && !cur.Frontier()
}

// sortRuns sorts the rest of a streamed version whose first piece is in the
// slab: every piece's sorted children go to a run file, and mergeRuns
// writes the sorted version to tmp-sorted.tok. It returns every scratch
// file it created, also on failure.
func (ar *Archiver) sortRuns(pieces *xmltree.FlatReader) (sortedVersion, []string, error) {
	var head []token // the root's open token and attributes
	var scratch []string
	for more := true; ; {
		toks, err := ar.sortSlab(false)
		if err != nil {
			return sortedVersion{}, scratch, err
		}
		if head == nil {
			h := 1
			for h < len(toks) && toks[h].op == tokAttr {
				h++
			}
			head = slices.Clone(toks[:h])
		}
		path := ar.tmpPath(fmt.Sprintf("run%04d.tok", len(scratch)))
		scratch = append(scratch, path)
		w, err := createScratch(ar.fs, path)
		if err == nil {
			for _, t := range toks[len(head) : len(toks)-1] {
				w.writeToken(t)
			}
			err = w.finish()
		}
		clear(toks)
		if err != nil {
			return sortedVersion{}, scratch, err
		}
		if !more {
			break
		}
		if more, err = pieces.Next(&ar.flat, ar.cut); err != nil {
			return sortedVersion{}, scratch, err
		}
	}
	sorted := sortedVersion{path: ar.tmpPath("sorted.tok"), runs: len(scratch)}
	return sorted, append(scratch, sorted.path), mergeRuns(ar.fs, ar.dict, head, scratch, sorted.path)
}

// mergeRuns writes the sorted version of a document sorted in runs to
// outPath: head, the root's open token and attributes, once; the root's
// children merged from the runs by (name, key), §6.2's multi-way merge in
// one pass; the root's close. A run never splits a child of the root, so
// the merge is at level 2 only, and one label at the head of two runs is
// two children with one key.
func mergeRuns(fs fsio.FS, dict *dictionary, head []token, runPaths []string, outPath string) error {
	root, err := dict.name(head[0].tag)
	if err != nil {
		return err
	}
	runs := make([]*tokenReader, 0, len(runPaths))
	defer func() {
		for _, r := range runs {
			r.release()
		}
	}()
	for _, p := range runPaths {
		f, err := fs.Open(p)
		if err != nil {
			return fmt.Errorf("extmem: open run: %w", err)
		}
		defer f.Close()
		runs = append(runs, newTokenReader(f))
	}
	out, err := createScratch(fs, outPath)
	if err != nil {
		return err
	}
	for _, t := range head {
		out.writeToken(t)
	}
	err = mergeChildren(out.tokenWriter, dict, root, runs)
	for _, r := range runs {
		if err == nil {
			err = r.err
		}
	}
	out.close()
	if ferr := out.finish(); err == nil {
		err = ferr
	}
	return err
}

// mergeChildren copies the children at the head of the runs to out,
// smallest label first, until every run is drained.
func mergeChildren(out *tokenWriter, dict *dictionary, root string, runs []*tokenReader) error {
	for {
		var next *tokenReader
		var nextName string
		var nextKey *tkey
		for _, r := range runs {
			t, ok := r.peek()
			if !ok {
				continue
			}
			name, err := dict.name(t.tag)
			if err != nil {
				return err
			}
			if next != nil {
				c := compareLabels(name, t.key, nextName, nextKey)
				if c == 0 {
					return fmt.Errorf("extmem: /%s: more than one child %s", root, keyLabel(name, t.key))
				} else if c > 0 {
					continue
				}
			}
			next, nextName, nextKey = r, name, t.key
		}
		if next == nil {
			return nil
		}
		for depth := 0; ; {
			t, ok := next.take()
			if !ok {
				return fmt.Errorf("extmem: run ends inside a child of /%s: %v", root, next.err)
			}
			out.writeToken(t)
			if t.op == tokOpen {
				depth++
			} else if t.op == tokClose {
				if depth--; depth == 0 {
					break
				}
			}
		}
	}
}
