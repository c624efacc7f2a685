package modeltest

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"xarch/internal/faulttest"
	"xarch/internal/fsio"
)

// Step is one step of a script, as the words of its one-line text form:
//
//	add tree|xml <doc>       Add of the parsed document, or AddReader of its XML
//	batch <doc>...           AddBatch of one to three documents
//	empty                    Add(nil)
//	compact                  Compact
//	reopen                   Close and open again
//	fault <point> [n]        one EIO at a fsio.FaultFS point during the next
//	                         step, at its hit after the first n
//	crash <k> <mode> [torn]  the next step killed at its k-th operation (or
//	                         right after it), and its directory left as the
//	                         outage mode (faulttest.AllModes) leaves it
//	pull                     sync the store into its replica and open that
//
// A <doc> is a fixture document's number, from 1; !n is its invalid twin,
// which repeats the root's first child at the root's end.
type Step []string

func (s Step) String() string { return strings.Join(s, " ") }

var (
	// modes are the outage modes' names, in faulttest.AllModes' order.
	modes = func() (names []string) {
		for _, m := range faulttest.AllModes {
			names = append(names, m.String())
		}
		return names
	}()
	step   = regexp.MustCompile(`^(add (tree|xml) !?\d+|batch( !?\d+){1,3}|empty|compact|reopen|pull|fault [a-z.]+( \d+)?|crash \d+ (` + strings.Join(modes, "|") + `)( torn)?)$`)
	header = regexp.MustCompile(`^corpus (\w+)( seed (\d+))?( stores( \w+)+)?$`)
)

// docs are the documents an add or a batch names.
func (s Step) docs() []string {
	switch {
	case s[0] == "add" && len(s) > 2:
		return s[2:]
	case s[0] == "batch":
		return s[1:]
	}
	return nil
}

// crash returns a crash step's operation number, outage mode and tear.
func (s Step) crash() (k int, mode fsio.PowerLossMode, torn bool) {
	k, _ = strconv.Atoi(s[1])
	return k, faulttest.AllModes[slices.Index(modes, s[2])], len(s) == 4
}

// Script is a corpus, the seed of its fixture, the store kinds it is
// played against (every kind when empty) and the steps.
type Script struct {
	Corpus string
	Seed   int64
	Stores []string
	Steps  []Step
}

// String is the script's text form: its header line, then a step a line.
func (sc *Script) String() string {
	lines := []string{fmt.Sprintf("corpus %s seed %d", sc.Corpus, sc.Seed)}
	if len(sc.Stores) > 0 {
		lines[0] += " stores " + strings.Join(sc.Stores, " ")
	}
	for _, s := range sc.Steps {
		lines = append(lines, s.String())
	}
	return strings.Join(lines, "\n") + "\n"
}

// Parse reads a script's text form: the header `corpus <name> [seed <n>]
// [stores <kind>...]`, then a step a line. Blank lines and lines starting
// with # are skipped.
func Parse(text string) (*Script, error) {
	var sc *Script
	for _, line := range strings.Split(text, "\n") {
		line = strings.Join(strings.Fields(line), " ")
		if h := header.FindStringSubmatch(line); h != nil && sc == nil {
			seed, _ := strconv.ParseInt(h[3], 10, 64)
			sc = &Script{Corpus: h[1], Seed: seed, Stores: strings.Fields(strings.TrimPrefix(h[4], " stores"))}
		} else if sc != nil && step.MatchString(line) {
			sc.Steps = append(sc.Steps, strings.Fields(line))
		} else if line != "" && line[0] != '#' {
			return nil, fmt.Errorf("modeltest: %q is not a header or a step", line)
		}
	}
	if sc == nil {
		return nil, fmt.Errorf("modeltest: no header")
	}
	return sc, nil
}

// faultPoints are the failpoints a fault step draws from: each is on the
// path of some add, compaction or pull.
var faultPoints = []string{"keydir.sync", "keydir.rename", "meta.sync", "meta.rename", "dict.sync",
	"segment.sync", "segment.write", "segment.close", "scratch.create", "scratch.write", "dir.sync"}

// generate draws 4 to 14 random steps over a fixture of ndocs documents.
func generate(rng *rand.Rand, sc *Script, ndocs int) {
	doc := func(bad bool) string {
		n := strconv.Itoa(1 + rng.Intn(ndocs))
		if bad {
			return "!" + n
		}
		return n
	}
	// Most crash points fall inside a commit: an open or an add of a small
	// fixture ends within about 40 operations; a pull takes 15 to 23 and
	// commits in the last few.
	crash := func(lo, hi int) string {
		k := lo + rng.Intn(hi-lo)
		if rng.Intn(5) == 0 {
			k = rng.Intn(1 + rng.Intn(400))
		}
		mode := modes[rng.Intn(len(modes))]
		if rng.Intn(3) == 0 {
			mode = fsio.PowerLossLastNameOnly.String() // the harshest, half the time
		}
		return fmt.Sprintf("crash %d %s%s", k, mode, []string{"", " torn"}[rng.Intn(2)])
	}
	if rng.Intn(4) == 0 {
		// The first step opens the store: a crash cuts the first commit.
		sc.Steps = append(sc.Steps, strings.Fields(crash(0, 40)))
	}
	for n := 4 + rng.Intn(11); len(sc.Steps) < n; {
		line := "pull"
		switch p := rng.Intn(100); {
		case p < 32:
			line = fmt.Sprintf("add %s %s", []string{"tree", "xml"}[rng.Intn(2)], doc(rng.Intn(8) == 0))
		case p < 42:
			line = "batch"
			bad := rng.Intn(1 + rng.Intn(3)) // at most one invalid
			for i := range 1 + rng.Intn(3) {
				line += " " + doc(i == bad && rng.Intn(3) == 0)
			}
		case p < 46:
			line = "empty"
		case p < 52:
			line = "compact"
		case p < 58:
			line = "reopen"
		case p < 66:
			line = "fault " + faultPoints[rng.Intn(len(faultPoints))]
			if after := rng.Intn(3); after > 0 {
				line += " " + strconv.Itoa(after)
			}
		case p < 80:
			line = crash(0, 40)
		case rng.Intn(4) != 0:
			// A replica commits in the pull's last operations.
			sc.Steps = append(sc.Steps, strings.Fields(crash(8, 24)))
		}
		sc.Steps = append(sc.Steps, strings.Fields(line))
	}
}
