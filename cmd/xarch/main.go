// Command xarch archives versions of a keyed XML database and queries the
// archive (the archiver of Buneman et al., "Archiving Scientific Data").
//
// Usage:
//
//	xarch add      [-engine mem|ext] -spec keys.txt -archive PATH [-compact] [-budget N] [-segtarget N] [-compactbudget N] version.xml
//	xarch get      [-engine mem|ext] -spec keys.txt -archive PATH -version N
//	xarch history  [-engine mem|ext] -spec keys.txt -archive PATH -selector /db/dept[name=finance] [-changes]
//	xarch query    [-engine mem|ext] -spec keys.txt -archive PATH [-json] 'EXPR'
//	xarch stats    [-engine mem|ext] -spec keys.txt -archive PATH
//	xarch snapshot [-engine mem|ext] -spec keys.txt -archive PATH
//	xarch inspect  -spec keys.txt -archive DIR [-verify]
//	xarch compact  -spec keys.txt -archive DIR [-dry-run]
//	xarch fsck     -spec keys.txt -archive DIR [-repair]
//	xarch validate -spec keys.txt version.xml
//	xarch serve    -spec keys.txt -archive DIR [-addr HOST:PORT] [-queue N] [-batch N] [-linger D] [-maxbody N] [-timeout D] [-readtimeout D]
//	xarch serve    -replica -archive DIR [-addr HOST:PORT] [-readtimeout D]
//	xarch push     -archive DIR -to URL [-retries N] [-timeout D] [-q]
//	xarch pull     -from URL -archive DIR [-verify] [-retries N] [-timeout D] [-q]
//
// Every subcommand works against either engine of the xarch.Store
// interface: with -engine mem (the default) PATH is an archive XML file,
// with -engine ext PATH is the directory of an external-memory archive
// (§6). "add" creates a fresh archive when PATH does not exist, and
// archives an empty version from an input without a byte (what "get"
// prints for one); the ext engine streams the version through the
// bounded-memory pipeline, checking it piece by piece, without ever
// parsing it into a tree, so documents larger than RAM can be archived.
// Selectors name elements by key, e.g.
// /db/dept[name=finance]/emp[fn=John,ln=Doe].
//
// "query" evaluates a boolean expression over the archive's records and
// prints each matching record's path with the versions at which the
// expression holds, e.g.
//
//	xarch query -spec keys.txt -archive DIR '/db/dept[name=finance] AND @grade=g2 AND changed 3..'
//
// Predicates are path selectors, @name[=value] attribute tests, version
// constraints (in LO..HI, at N) and changed [LO..HI], combined with
// AND/OR/NOT and parentheses. An empty result is still exit 0; a
// malformed expression is a usage error (exit 2).
//
// "serve" keeps one external archive open as an HTTP/JSON service
// (POST /v1/add, GET /v1/version/{n}, /v1/history, /v1/snapshot,
// /v1/stats, /v1/healthz). Concurrent adds are group-committed: one
// durable keydir commit per batch, each response reporting the exact
// version its document landed in. SIGINT/SIGTERM drain admitted adds
// before exiting.
//
// "push" and "pull" replicate an external archive between a directory
// and a server (the same sync with the roles swapped): only missing
// segments travel, each verified against the key directory's checksums
// before installing, and the key-directory commit is the last step —
// an interrupted transfer leaves the replica on its previous committed
// generation, and a re-run resumes from the staged blobs. "serve
// -replica" exposes a bare directory as a push target; a full "serve"
// doubles as a pull source, serving each pull out of a pinned
// generation so it never observes a half-installed commit.
//
// Exit codes: 0 success, 1 failure, 2 usage, 3 degraded archive
// (poisoned writer; run `xarch fsck -repair`), 4 no such version or
// element.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xarch"
	"xarch/internal/extmem"
	"xarch/internal/fsio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "add":
		err = cmdAdd(args)
	case "get":
		err = cmdGet(args)
	case "history":
		err = cmdHistory(args)
	case "query":
		err = cmdQuery(args)
	case "validate":
		err = cmdValidate(args)
	case "stats":
		err = cmdStats(args)
	case "snapshot":
		err = cmdSnapshot(args)
	case "inspect":
		err = cmdInspect(args)
	case "compact":
		err = cmdCompact(args)
	case "fsck":
		err = cmdFsck(args)
	case "serve":
		err = cmdServe(args)
	case "push":
		err = cmdPush(args)
	case "pull":
		err = cmdPull(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xarch:", err)
		if errors.Is(err, xarch.ErrDegraded) {
			fmt.Fprintln(os.Stderr, "xarch: the archive writer is poisoned; reads still serve — run `xarch fsck -repair`")
		}
		os.Exit(exitCode(err))
	}
}

// exitCode maps error classes to stable exit codes so scripts dispatch
// on $? instead of parsing messages: 1 generic failure, 2 usage (flag
// package and usage()), 3 degraded archive, 4 missing version/element.
func exitCode(err error) int {
	switch {
	case errors.Is(err, xarch.ErrDegraded):
		return 3
	case errors.Is(err, xarch.ErrNoSuchVersion), errors.Is(err, xarch.ErrNoSuchElement):
		return 4
	case errors.Is(err, xarch.ErrBadQuery):
		return 2
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xarch {add|get|history|query|validate|stats|snapshot|inspect|compact|fsck|serve|push|pull} [flags]")
	os.Exit(2)
}

// storeFlags holds the flags shared by every store-backed subcommand.
type storeFlags struct {
	engine        *string
	spec          *string
	archive       *string
	budget        *int
	compact       *bool
	compactBudget *int
	segTarget     *int
}

func addStoreFlags(fs *flag.FlagSet) *storeFlags {
	return &storeFlags{
		engine:        fs.String("engine", "mem", "archiver engine: mem (in-memory) or ext (external-memory)"),
		spec:          fs.String("spec", "", "key specification file"),
		archive:       fs.String("archive", "", "archive XML file (mem) or archive directory (ext)"),
		budget:        fs.Int("budget", 1<<20, "memory budget of an add, in document nodes: a larger version is checked and sorted in pieces (ext engine)"),
		compact:       fs.Bool("compact", false, "further compaction below frontier nodes (mem engine)"),
		compactBudget: fs.Int("compactbudget", 0, "segment-compaction byte budget after each add; 0 disables (ext engine)"),
		segTarget:     fs.Int("segtarget", 0, "segment payload target size in bytes; 0 uses the default (ext engine)"),
	}
}

func loadSpec(path string) (*xarch.KeySpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xarch.ReadKeySpec(f)
}

// openStore opens the requested engine against the flags' archive path.
// The returned save function persists the in-memory engine back to its
// file (the external engine persists itself on every Add). Only with
// create may a missing path become a fresh archive; read-only commands
// refuse, so a mistyped path errors instead of leaving an empty archive.
func openStore(sf *storeFlags, create bool) (xarch.Store, func() error, error) {
	if *sf.spec == "" || *sf.archive == "" {
		return nil, nil, fmt.Errorf("need -spec and -archive")
	}
	spec, err := loadSpec(*sf.spec)
	if err != nil {
		return nil, nil, err
	}
	opts := []xarch.Option{
		xarch.WithCompaction(*sf.compact),
		xarch.WithMemoryBudget(*sf.budget),
		xarch.WithCompactionBudget(*sf.compactBudget),
		xarch.WithSegmentTargetSize(*sf.segTarget),
		// One-shot commands issue at most one query, so the store-owned
		// indexes would cost a full archive scan without ever paying off.
		xarch.WithIndexes(false),
	}
	switch *sf.engine {
	case "ext":
		if !create {
			if _, err := os.Stat(*sf.archive); err != nil {
				return nil, nil, fmt.Errorf("archive directory %s: %w", *sf.archive, err)
			}
		}
		store, err := xarch.OpenStore(*sf.archive, spec, opts...)
		if err != nil {
			return nil, nil, err
		}
		return store, func() error { return nil }, nil
	case "mem":
		path := *sf.archive
		var store *xarch.MemStore
		if f, err := os.Open(path); err == nil {
			store, err = xarch.LoadStore(f, spec, opts...)
			f.Close()
			if err != nil {
				return nil, nil, err
			}
		} else if os.IsNotExist(err) && create {
			store = xarch.NewStore(spec, opts...)
		} else {
			return nil, nil, err
		}
		save := func() error {
			var buf bytes.Buffer
			if err := store.Snapshot(&buf); err != nil {
				return err
			}
			return extmem.CommitFiles(fsio.OS, filepath.Dir(path), []extmem.StateFile{{Name: filepath.Base(path), Data: buf.Bytes()}})
		}
		return store, save, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q (want mem or ext)", *sf.engine)
	}
}

func cmdAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	sf := addStoreFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("add needs -spec, -archive and one version file")
	}
	store, save, err := openStore(sf, true)
	if err != nil {
		return err
	}
	defer store.Close()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	// An input with no bytes at all is what `xarch get` writes for an
	// empty version: archive one, so that every version an archive holds
	// can be moved to another. Decided from the content, not the file's
	// size, which a pipe or a device reports as 0 too.
	br := bufio.NewReader(f)
	if _, perr := br.Peek(1); perr == io.EOF {
		err = store.Add(nil)
	} else {
		err = store.AddReader(br)
	}
	f.Close()
	if err != nil {
		var kv *xarch.KeyViolationError
		if errors.As(err, &kv) {
			return fmt.Errorf("version rejected:\n%w", kv)
		}
		return err
	}
	if err := save(); err != nil {
		return err
	}
	fmt.Printf("archived version %d (%s engine)\n", store.Versions(), *sf.engine)
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	sf := addStoreFlags(fs)
	version := fs.Int("version", 0, "version number to retrieve")
	fs.Parse(args)
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	// Streamed, so that the external engine holds no more of the version
	// than its depth and one record.
	out := bufio.NewWriter(os.Stdout)
	cw := &countingWriter{w: out}
	if err := store.WriteVersion(*version, cw); err != nil {
		if errors.Is(err, xarch.ErrNoSuchVersion) {
			// %w keeps the sentinel, so exitCode still answers 4.
			return fmt.Errorf("version %d does not exist (archive has %d): %w", *version, store.Versions(), xarch.ErrNoSuchVersion)
		}
		return err
	}
	if cw.n == 0 {
		fmt.Fprintf(os.Stderr, "version %d is an empty database\n", *version)
		return nil
	}
	return out.Flush()
}

// countingWriter counts the bytes written through it to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	sf := addStoreFlags(fs)
	selector := fs.String("selector", "", "element selector, e.g. /db/dept[name=finance]")
	changes := fs.Bool("changes", false, "also list content-change versions")
	fs.Parse(args)
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	h, err := store.History(*selector)
	if err != nil {
		switch {
		case errors.Is(err, xarch.ErrNoSuchElement):
			return fmt.Errorf("no archived element matches %s: %w", *selector, xarch.ErrNoSuchElement)
		case errors.Is(err, xarch.ErrAmbiguousSelector):
			return fmt.Errorf("selector %s is ambiguous; add key predicates", *selector)
		}
		return err
	}
	fmt.Printf("exists at versions: %s\n", h)
	if *changes {
		ch, err := store.ContentHistory(*selector)
		if err != nil {
			return err
		}
		fmt.Printf("content changed at: %v\n", ch)
	}
	return nil
}

// cmdQuery evaluates a boolean Select expression and prints one line per
// matching record: its display path and the interval set of versions at
// which the expression holds. No matches is still success.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	sf := addStoreFlags(fs)
	asJSON := fs.Bool("json", false, "print the matches as a JSON array")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs -spec, -archive and one expression: %w", xarch.ErrBadQuery)
	}
	expr := fs.Arg(0)
	// Parse before opening the store so a malformed expression reports
	// without touching the archive.
	if _, err := xarch.ParseQuery(expr); err != nil {
		return err
	}
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	results, err := store.Select(expr)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		if results == nil {
			results = []xarch.SelectResult{}
		}
		return enc.Encode(results)
	}
	for _, r := range results {
		fmt.Printf("%s\t%s\n", r.Path, r.Versions)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	specPath := fs.String("spec", "", "key specification file")
	fs.Parse(args)
	if *specPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("validate needs -spec and one document")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	doc, err := xarch.ParseXML(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := xarch.ValidateDocument(spec, doc); err != nil {
		var kv *xarch.KeyViolationError
		if errors.As(err, &kv) {
			for _, v := range kv.Violations {
				fmt.Println(v.Error())
			}
			os.Exit(1)
		}
		return err
	}
	fmt.Println("document satisfies the key specification")
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	sf := addStoreFlags(fs)
	fs.Parse(args)
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	s, err := store.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("versions              %d\n", s.Versions)
	fmt.Printf("elements              %d\n", s.Elements)
	fmt.Printf("text nodes            %d\n", s.TextNodes)
	fmt.Printf("attributes            %d\n", s.Attributes)
	fmt.Printf("keyed nodes           %d\n", s.KeyedNodes)
	fmt.Printf("frontier nodes        %d\n", s.FrontierNodes)
	fmt.Printf("explicit timestamps   %d\n", s.ExplicitTimestamps)
	fmt.Printf("inherited timestamps  %d\n", s.InheritedTimestamps)
	fmt.Printf("timestamp intervals   %d\n", s.TimestampRuns)
	fmt.Printf("content groups        %d\n", s.Groups)
	fmt.Printf("archive XML bytes     %d\n", s.XMLBytes)
	n, err := store.CompressedSize()
	if err != nil {
		return err
	}
	fmt.Printf("compressed bytes      %d\n", n)
	if es, ok := store.(*xarch.ExtStore); ok {
		ss, err := es.StorageStats()
		if err != nil {
			return err
		}
		fmt.Printf("segment files         %d\n", ss.Segments)
		fmt.Printf("segment bytes         %d\n", ss.SegmentBytes)
		fmt.Printf("stored bytes          %d\n", ss.StoredBytes)
		fmt.Printf("posting bytes         %d\n", ss.PostingBytes)
		fmt.Printf("directory entries     %d\n", ss.DirectoryEntries)
		fmt.Printf("directory bytes       %d\n", ss.DirectoryBytes)
	}
	return nil
}

// cmdInspect dumps the external engine's segment map: every segment
// file with its key range, entry count and checksum state.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	sf := addStoreFlags(fs)
	verify := fs.Bool("verify", false, "run the fsck checker first: per-file checksum status and degraded/clean state")
	fs.Parse(args)
	*sf.engine = "ext" // the segment map only exists on the external engine
	if *verify {
		// Check before opening: opening the store already sweeps crash
		// leftovers, which would hide exactly what -verify reports.
		report, err := xarch.CheckStore(*sf.archive)
		if err != nil {
			return err
		}
		printCheckReport(report)
	}
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	es := store.(*xarch.ExtStore)
	ss, err := es.StorageStats()
	if err != nil {
		return err
	}
	fmt.Printf("versions %d, roots %d, segments %d (%d bytes, %d stored), directory entries %d (%d bytes)\n",
		store.Versions(), ss.Roots, ss.Segments, ss.SegmentBytes, ss.StoredBytes, ss.DirectoryEntries, ss.DirectoryBytes)
	segs, err := es.Segments()
	if err != nil {
		return err
	}
	candidates := 0
	for _, s := range segs {
		crc := "ok"
		if !s.CRCOK {
			crc = "CORRUPT"
		}
		// payload bytes plus dictionary overhead; the ratio is on-disk
		// bytes per payload byte.
		size := fmt.Sprintf("%d bytes (+ %d dict, ratio %.2f)",
			s.Bytes, s.DictBytes,
			float64(s.Bytes+s.DictBytes)/float64(max(s.Bytes, 1)))
		mark := ""
		if s.Compactable {
			mark = "  COMPACTABLE"
			candidates++
		}
		if s.Raw {
			fmt.Printf("%s  root=%s  raw  %s  fill=%.2f  crc=%s%s\n",
				s.File, s.Root, size, s.Fill, crc, mark)
			continue
		}
		fmt.Printf("%s  root=%s  %d entries  %s  fill=%.2f  [%s .. %s]  crc=%s%s\n",
			s.File, s.Root, s.Entries, size, s.Fill, s.FirstLabel, s.LastLabel, crc, mark)
	}
	if candidates > 0 {
		fmt.Printf("%d segments in coalesce runs; run `xarch compact` to merge them\n", candidates)
	}
	return nil
}

// cmdCompact coalesces runs of undersized adjacent segments of an
// external archive; with -dry-run it only reports what a pass would do.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	sf := addStoreFlags(fs)
	dryRun := fs.Bool("dry-run", false, "report the planned coalesce runs without rewriting anything")
	fs.Parse(args)
	*sf.engine = "ext" // segment compaction only exists on the external engine
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	es := store.(*xarch.ExtStore)
	if *dryRun {
		plan, err := es.CompactionPlan()
		if err != nil {
			return err
		}
		if len(plan) == 0 {
			fmt.Println("nothing to compact")
			return nil
		}
		for _, run := range plan {
			fmt.Printf("root=%s  %d segments, %d bytes: %v\n", run.Root, run.Segments, run.Bytes, run.Files)
		}
		return nil
	}
	st, err := es.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("compacted %d of %d runs: %d segments -> %d (%d bytes rewritten)\n",
		st.Executed, st.Planned, st.Coalesced, st.Created, st.BytesRewritten)
	return nil
}

// cmdFsck verifies an external archive directory offline; with -repair
// it rebuilds the key directory, sweeps crash leftovers and clears the
// degraded-writer marker, then verifies again.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	sf := addStoreFlags(fs)
	repair := fs.Bool("repair", false, "repair the archive: rebuild metadata, sweep crash leftovers, clear the degraded marker")
	fs.Parse(args)
	if *sf.archive == "" {
		return fmt.Errorf("need -archive")
	}
	var report *xarch.CheckReport
	var err error
	if *repair {
		if *sf.spec == "" {
			return fmt.Errorf("need -spec to repair")
		}
		spec, serr := loadSpec(*sf.spec)
		if serr != nil {
			return serr
		}
		report, err = xarch.RepairStore(*sf.archive, spec,
			xarch.WithMemoryBudget(*sf.budget), xarch.WithSegmentTargetSize(*sf.segTarget))
	} else {
		report, err = xarch.CheckStore(*sf.archive)
	}
	if err != nil {
		return err
	}
	printCheckReport(report)
	if !report.Clean {
		if *repair {
			return fmt.Errorf("archive not clean after repair")
		}
		return fmt.Errorf("archive not clean; run `xarch fsck -repair`")
	}
	return nil
}

// printCheckReport renders one fsck report, problems last so they are
// visible above the prompt.
func printCheckReport(r *xarch.CheckReport) {
	okCount := 0
	for _, it := range r.Items {
		if it.OK {
			okCount++
		}
	}
	fmt.Printf("versions %d, %d checks, %d ok\n", r.Versions, len(r.Items), okCount)
	for _, it := range r.Items {
		status := "ok"
		if !it.OK {
			status = "PROBLEM"
		}
		fmt.Printf("%-8s %-14s %s  %s\n", status, it.Kind, it.File, it.Detail)
	}
	if r.Clean {
		fmt.Println("clean")
	} else {
		fmt.Println("NOT CLEAN")
	}
}

func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	sf := addStoreFlags(fs)
	fs.Parse(args)
	store, _, err := openStore(sf, false)
	if err != nil {
		return err
	}
	defer store.Close()
	return store.Snapshot(os.Stdout)
}
