package extmem

import (
	"bufio"
	"fmt"
	"io"

	"xarch/internal/core"
	"xarch/internal/intervals"
)

// rootEff returns a root's effective timestamp. Every record carries its
// explicit timestamp parsed from the moment it is created.
func (q *QueryView) rootEff(r *rootRecord) *intervals.Set {
	if r.time == nil {
		return q.d.rootTime
	}
	return r.time
}

// entryEff returns a child entry's effective timestamp under its root's.
func entryEff(e *childEntry, rootEff *intervals.Set) *intervals.Set {
	if e.time == nil {
		return rootEff
	}
	return e.time
}

func corruptf(format string, args ...any) error {
	args = append(args, core.ErrCorruptArchive)
	return fmt.Errorf("extmem: "+format+": %w", args...)
}

// pooledWriter borrows a pooled buffered writer over w; call done (after
// the final Flush) to return the buffer.
func pooledWriter(w io.Writer) (bw *bufio.Writer, done func()) {
	bw = writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw, func() {
		bw.Reset(io.Discard)
		writerPool.Put(bw)
	}
}
