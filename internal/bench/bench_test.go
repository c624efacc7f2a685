package bench

import (
	"strings"
	"testing"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// Small scales keep the test suite fast; cmd/benchfig runs the full sizes.

func TestRunOMIMShape(t *testing.T) {
	spec, docs := OMIMSequence(0.1, 8)
	lines, err := Run(spec, docs, Config{CompressEvery: 4, KeepConcat: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines.Version) != 8 {
		t.Fatalf("rows = %d", len(lines.Version))
	}
	// Monotone growth of every cumulative line. The archive may shed up to
	// ~5% when a timestamp wrapper collapses into inheritance (removing a
	// <T> element de-indents its whole subtree).
	for i := 1; i < 8; i++ {
		if float64(lines.Archive[i]) < 0.94*float64(lines.Archive[i-1]) {
			t.Errorf("archive shrank at v%d: %d -> %d", i+1, lines.Archive[i-1], lines.Archive[i])
		}
		if lines.IncDiffs[i] < lines.IncDiffs[i-1] {
			t.Errorf("inc diffs shrank at v%d", i+1)
		}
		if lines.CumuDiffs[i] < lines.CumuDiffs[i-1] {
			t.Errorf("cumu diffs shrank at v%d", i+1)
		}
	}
	// Accretive data: the archive stays close to the incremental diffs
	// (§5.3: "the size of our archive and the size of the diff-based
	// repository would be roughly the same").
	arch, inc := Last(lines.Archive), Last(lines.IncDiffs)
	if float64(arch) > 1.5*float64(inc) {
		t.Errorf("archive %d too far above inc diffs %d on accretive data", arch, inc)
	}
	// Compression computed at versions 4 and 8 only.
	if lines.GzipInc[0] != -1 || lines.GzipInc[3] < 0 || lines.GzipInc[7] < 0 {
		t.Errorf("CompressEvery sampling wrong: %v", lines.GzipInc)
	}
	// The compressed archive beats the compressed diffs (§5.4).
	if xa, gz := Last(lines.XMillArchive), Last(lines.GzipInc); xa >= gz {
		t.Errorf("xmill(archive)=%d should beat gzip(inc)=%d", xa, gz)
	}
	if Last(lines.XMillConcat) < 0 {
		t.Error("concat line missing")
	}
}

// TestExtArchiveBelowCumulativeDiffs: §5's raw claim — the archive is no
// larger than the cumulative diff repository — holds for the bytes the
// external engine writes, on the accretive, churning and both XMark
// sequences. (Its gzipped segment files do not beat gzip of the
// incremental diffs; only xmill(archive) does. DESIGN.md E15 has the
// numbers.)
func TestExtArchiveBelowCumulativeDiffs(t *testing.T) {
	seqs := []struct {
		name string
		seq  func() (*keys.Spec, []*xmltree.Node)
	}{
		{"omim", func() (*keys.Spec, []*xmltree.Node) { return OMIMSequence(0.1, 8) }},
		{"swissprot", func() (*keys.Spec, []*xmltree.Node) { return SwissProtSequence(0.12, 8) }},
		{"xmark-random", func() (*keys.Spec, []*xmltree.Node) { return XMarkSequence(0.25, 6, 0.10, false) }},
		{"xmark-keymod", func() (*keys.Spec, []*xmltree.Node) { return XMarkSequence(0.25, 6, 0.10, true) }},
	}
	for _, sq := range seqs {
		spec, docs := sq.seq()
		lines, err := Run(spec, docs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ext, cumu := Last(lines.ExtArchive), Last(lines.CumuDiffs)
		t.Logf("%s: ext %d, V1+cumu %d, V1+inc %d", sq.name, ext, cumu, Last(lines.IncDiffs))
		if ext >= cumu {
			t.Errorf("%s: external archive %d bytes is not below V1+cumulative diffs %d", sq.name, ext, cumu)
		}
	}
}

func TestCumulativeQuadratic(t *testing.T) {
	spec, docs := SwissProtSequence(0.12, 8)
	lines, err := Run(spec, docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: cumulative diffs blow up fast under heavy churn — by the last
	// version they must far exceed the incremental repository.
	cumu, inc := Last(lines.CumuDiffs), Last(lines.IncDiffs)
	if cumu < 2*inc {
		t.Errorf("cumulative %d should exceed 2x incremental %d", cumu, inc)
	}
}

func TestKeyModWorstCase(t *testing.T) {
	// Fig 14: modifying key values forces the archive to store nearly
	// identical elements twice, while line diffs store one changed line.
	spec, docs := XMarkSequence(0.25, 6, 0.10, true)
	lines, err := Run(spec, docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	arch, inc := Last(lines.Archive), Last(lines.IncDiffs)
	if arch < inc {
		t.Errorf("worst case should hurt the archive: archive %d < inc %d", arch, inc)
	}
	// And the diff repository stays close to one version's size.
	if ver := Last(lines.Version); inc > 3*ver {
		t.Errorf("inc diffs %d should stay near version size %d under key-mod", inc, ver)
	}
}

func TestRandomChangesBothModes(t *testing.T) {
	// Fig 13: at low ratios inc diffs win slightly; the archive must stay
	// in the same ballpark (within 2x) rather than blowing up.
	spec, docs := XMarkSequence(0.25, 6, 0.0166, false)
	lines, err := Run(spec, docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	arch, inc := Last(lines.Archive), Last(lines.IncDiffs)
	if float64(arch) > 2*float64(inc) {
		t.Errorf("archive %d vs inc %d: too large at low change ratio", arch, inc)
	}
}

func TestWeaveNoWorseThanPlain(t *testing.T) {
	spec, docs := XMarkSequence(0.2, 6, 0.10, false)
	plain, err := Run(spec, docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec2, docs2 := XMarkSequence(0.2, 6, 0.10, false)
	weave, err := Run(spec2, docs2, Config{Weave: true})
	if err != nil {
		t.Fatal(err)
	}
	p, w := Last(plain.Archive), Last(weave.Archive)
	if w > p {
		t.Errorf("further compaction grew the archive: plain %d, weave %d", p, w)
	}
	t.Logf("plain=%d weave=%d (%.3fx)", p, w, float64(w)/float64(p))
}

func TestFig7Stats(t *testing.T) {
	stats := Fig7(0.05, 3, 2)
	if len(stats) != 3 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	names := map[string]bool{}
	for _, s := range stats {
		names[s.Name] = true
		if s.Bytes <= 0 || s.Nodes <= 0 || s.Height <= 0 {
			t.Errorf("degenerate stats for %s: %+v", s.Name, s)
		}
	}
	for _, want := range []string{"OMIM", "Swiss-Prot", "XMark"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
	// The paper's height relationships: OMIM h=5, Swiss-Prot h=6,
	// XMark h=12 — our generators reproduce flat curated trees and a
	// deeper auction tree.
	byName := map[string]DatasetStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["XMark"].Height <= byName["OMIM"].Height {
		t.Errorf("XMark should be deeper than OMIM: %d vs %d",
			byName["XMark"].Height, byName["OMIM"].Height)
	}
	table := Fig7Table(stats)
	if !strings.Contains(table, "OMIM") || !strings.Contains(table, "Height") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestTableRendering(t *testing.T) {
	spec, docs := OMIMSequence(0.05, 3)
	lines, err := Run(spec, docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	table := lines.Table("test")
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) != 2+3 { // title + header + 3 versions
		t.Errorf("table rows = %d:\n%s", len(rows), table)
	}
	sum := lines.Summary()
	if !strings.Contains(sum, "archive") || !strings.Contains(sum, "versions") {
		t.Errorf("summary malformed:\n%s", sum)
	}
}
