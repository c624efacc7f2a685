// Package bench is the experiment harness: it regenerates every table and
// figure of the evaluation (§5, Appendix C) of Buneman et al., "Archiving
// Scientific Data" — archive size versus incremental/cumulative diff
// repositories, raw and under compression, across the OMIM-like,
// Swiss-Prot-like and XMark-like workloads.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"xarch/internal/compressutil"
	"xarch/internal/core"
	"xarch/internal/extmem"
	"xarch/internal/keys"
	"xarch/internal/repo"
	"xarch/internal/xmill"
	"xarch/internal/xmltree"
)

// Lines holds one value per archived version for each chart line of
// Figures 11-14. Compression lines hold -1 where not computed.
type Lines struct {
	Dataset string
	// Raw storage sizes (bytes).
	Version   []int // size of version i alone
	Archive   []int // our archive holding versions 1..i
	IncDiffs  []int // V1 + incremental diffs
	CumuDiffs []int // V1 + cumulative diffs
	// ExtArchive is the external engine's archive of versions 1..i: its
	// segment payloads plus their dictionaries.
	ExtArchive []int
	// Compressed sizes (§5.4); -1 when skipped at that version.
	GzipInc      []int // gzip(V1 + incremental diffs)
	GzipCumu     []int // gzip(V1 + cumulative diffs)
	XMillArchive []int // xmill(archive)
	XMillConcat  []int // xmill(V1 + ... + Vi)
	GzipExt      []int // gzip of each external-engine segment file without its postings, summed
}

// Config controls which lines are computed.
type Config struct {
	// Weave archives with further compaction (§4.2).
	Weave bool
	// CompressEvery computes the compression lines at every k-th version
	// (and always at the last); 0 disables them. Compression, especially
	// xmill(V1+...+Vi), dominates run time.
	CompressEvery int
	// KeepConcat enables the xmill(V1+...+Vi) line, which needs all
	// versions in memory.
	KeepConcat bool
}

// Run archives the version sequence — in the in-memory archive and, one
// tree add per version, in an external-engine archive in a temporary
// directory under the default configuration — and measures every
// configured line.
func Run(spec *keys.Spec, versions []*xmltree.Node, cfg Config) (*Lines, error) {
	a := core.New(spec, core.Options{FurtherCompaction: cfg.Weave, SkipValidation: true})
	dir, err := os.MkdirTemp("", "bench-ext-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	ext, err := extmem.Open(dir, spec, extmem.Config{})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer ext.Close()
	inc := repo.NewIncremental()
	cumu := repo.NewCumulative()
	out := &Lines{}
	var kept []*xmltree.Node

	for i, doc := range versions {
		text := doc.IndentedXML()
		if err := a.Add(doc); err != nil {
			return nil, fmt.Errorf("bench: version %d: %w", i+1, err)
		}
		items, err := ext.AddVersionBatch([]extmem.Source{{Doc: doc}})
		if err == nil {
			err = items[0].Err
		}
		if err != nil {
			return nil, fmt.Errorf("bench: version %d, external engine: %w", i+1, err)
		}
		inc.Add(text)
		cumu.Add(text)
		if cfg.KeepConcat {
			kept = append(kept, doc)
		}

		out.Version = append(out.Version, len(text))
		out.Archive = append(out.Archive, len(a.XML()))
		out.IncDiffs = append(out.IncDiffs, inc.Size())
		out.CumuDiffs = append(out.CumuDiffs, cumu.Size())
		out.ExtArchive = append(out.ExtArchive, int(ext.CompressedSize()))

		compress := cfg.CompressEvery > 0 &&
			((i+1)%cfg.CompressEvery == 0 || i == len(versions)-1)
		if compress {
			out.GzipInc = append(out.GzipInc, compressutil.GzipSizeStrings(inc.Pieces()))
			out.GzipCumu = append(out.GzipCumu, compressutil.GzipSizeStrings(cumu.Pieces()))
			out.XMillArchive = append(out.XMillArchive, len(xmill.Compress(a.ToXMLTree())))
			if cfg.KeepConcat {
				out.XMillConcat = append(out.XMillConcat, len(xmill.CompressConcat(kept)))
			} else {
				out.XMillConcat = append(out.XMillConcat, -1)
			}
			gz, err := gzipSegments(ext, dir)
			if err != nil {
				return nil, err
			}
			out.GzipExt = append(out.GzipExt, gz)
		} else {
			out.GzipInc = append(out.GzipInc, -1)
			out.GzipCumu = append(out.GzipCumu, -1)
			out.XMillArchive = append(out.XMillArchive, -1)
			out.XMillConcat = append(out.XMillConcat, -1)
			out.GzipExt = append(out.GzipExt, -1)
		}
	}
	return out, nil
}

// gzipSegments sums the gzip size of every segment file of ar, in dir,
// without its postings section: what a filesystem or object store
// compressing whole files would keep of the external engine's archive,
// its index left out as ExtArchive leaves it out.
func gzipSegments(ar *extmem.Archiver, dir string) (int, error) {
	n := 0
	for _, s := range ar.Segments() {
		data, err := os.ReadFile(filepath.Join(dir, s.File))
		if err != nil {
			return 0, fmt.Errorf("bench: %w", err)
		}
		payload := len(data) - int(s.Bytes)
		n += compressutil.GzipSize(slices.Concat(data[:payload-int(s.PostingBytes)], data[payload:]))
	}
	return n, nil
}

// Last returns the final value of a line, skipping trailing -1 entries.
func Last(line []int) int {
	for i := len(line) - 1; i >= 0; i-- {
		if line[i] >= 0 {
			return line[i]
		}
	}
	return -1
}

// Table renders the lines as an aligned text table, one row per version.
func (l *Lines) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	cols := []struct {
		name string
		vals []int
	}{
		{"version", l.Version},
		{"archive", l.Archive},
		{"V1+inc", l.IncDiffs},
		{"V1+cumu", l.CumuDiffs},
		{"ext", l.ExtArchive},
		{"gz(inc)", l.GzipInc},
		{"gz(cumu)", l.GzipCumu},
		{"xm(arch)", l.XMillArchive},
		{"xm(cat)", l.XMillConcat},
		{"gz(ext)", l.GzipExt},
	}
	fmt.Fprintf(&b, "%4s", "v")
	for _, c := range cols {
		fmt.Fprintf(&b, " %10s", c.name)
	}
	b.WriteByte('\n')
	for i := range l.Version {
		fmt.Fprintf(&b, "%4d", i+1)
		for _, c := range cols {
			v := -1
			if i < len(c.vals) {
				v = c.vals[i]
			}
			if v < 0 {
				fmt.Fprintf(&b, " %10s", "-")
			} else {
				fmt.Fprintf(&b, " %10d", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary renders the headline ratios of a run.
func (l *Lines) Summary() string {
	var b strings.Builder
	n := len(l.Version)
	if n == 0 {
		return "(empty run)\n"
	}
	arch, inc, cumu, ver := Last(l.Archive), Last(l.IncDiffs), Last(l.CumuDiffs), Last(l.Version)
	fmt.Fprintf(&b, "  versions            %d\n", n)
	fmt.Fprintf(&b, "  last version        %d bytes\n", ver)
	fmt.Fprintf(&b, "  archive             %d bytes (%.3fx inc diffs, %.3fx last version)\n",
		arch, ratio(arch, inc), ratio(arch, ver))
	fmt.Fprintf(&b, "  V1+incremental      %d bytes\n", inc)
	fmt.Fprintf(&b, "  V1+cumulative       %d bytes (%.2fx incremental)\n", cumu, ratio(cumu, inc))
	ext := Last(l.ExtArchive)
	fmt.Fprintf(&b, "  ext archive         %d bytes (%.3fx V1+inc, %.3fx V1+cumu)\n", ext, ratio(ext, inc), ratio(ext, cumu))
	if gz := Last(l.GzipInc); gz >= 0 {
		xa := Last(l.XMillArchive)
		fmt.Fprintf(&b, "  gzip(inc diffs)     %d bytes\n", gz)
		fmt.Fprintf(&b, "  gzip(cumu diffs)    %d bytes\n", Last(l.GzipCumu))
		fmt.Fprintf(&b, "  xmill(archive)      %d bytes (%.3fx gzip(inc), %.3fx last version)\n",
			xa, ratio(xa, gz), ratio(xa, ver))
		if xc := Last(l.XMillConcat); xc >= 0 {
			fmt.Fprintf(&b, "  xmill(V1+...+Vn)    %d bytes\n", xc)
		}
		ge := Last(l.GzipExt)
		fmt.Fprintf(&b, "  gzip(ext segments)  %d bytes (%.3fx gzip(inc))\n", ge, ratio(ge, gz))
	}
	return b.String()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
