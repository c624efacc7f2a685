// Big archive: the external-memory archiver (§6).
//
// Swiss-Prot versions reach hundreds of megabytes — far beyond the
// archiver's in-memory reach on the paper's 256 MB machine. This example
// archives Swiss-Prot-like releases through the external sort (pieces of
// the release sorted into runs) and the streaming segment merge, which
// reads the runs directly, with an artificially tiny memory budget, so the
// multi-run machinery is visible.
//
// Both engines implement the same xarch.Store interface, so retrieval and
// history queries run directly against the external store — no manual
// export/reload step.
//
//	go run ./examples/bigarchive
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"xarch"
	"xarch/internal/datagen"
)

func main() {
	dir, err := os.MkdirTemp("", "xarch-bigarchive-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := datagen.DefaultSwissProt()
	cfg.Records = 80
	g := datagen.NewSwissProt(cfg)
	spec := datagen.SwissProtSpec()

	// A 500-node budget cuts every release into many pieces, one run
	// each — a stand-in for a document 1000x larger than memory. Each
	// piece is checked against the key specification as it is sorted.
	const budget = 500
	ar, err := xarch.OpenStore(dir, spec, xarch.WithMemoryBudget(budget))
	if err != nil {
		log.Fatal(err)
	}
	defer ar.Close()

	fmt.Printf("== External store in %s (budget: %d nodes) ==\n", dir, budget)
	var releases []string
	for rel := 1; rel <= 4; rel++ {
		doc := g.Next()
		text := doc.IndentedXML()
		releases = append(releases, text)
		// AddReader sorts the release piece by piece into runs and merges
		// them; the release is never held in memory whole.
		if err := ar.AddReader(strings.NewReader(text)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("release %d: %8d bytes -> %4d sorted runs merged\n",
			rel, len(text), ar.SortRuns())
	}

	// The archive body is key-range-partitioned segment files plus a
	// persistent key directory: an Add rewrites only the segments whose
	// key ranges the release touches, and selective queries seek through
	// the directory instead of scanning the archive.
	if ss, err := ar.StorageStats(); err == nil {
		fmt.Printf("storage: %d segments (%d bytes), %d directory entries; last add reused %d / rewrote %d segments\n",
			ss.Segments, ss.SegmentBytes, ss.DirectoryEntries, ss.LastAddReused, ss.LastAddRewritten)
	}

	var b strings.Builder
	if err := ar.Snapshot(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narchive XML: %d bytes for %d releases\n", b.Len(), ar.Versions())

	// Retrieval runs against the external store itself, through the same
	// Store interface the in-memory engine implements.
	for rel := 1; rel <= len(releases); rel++ {
		got, err := ar.Version(rel)
		if err != nil {
			log.Fatal(err)
		}
		want, err := xarch.ParseXMLString(releases[rel-1])
		if err != nil {
			log.Fatal(err)
		}
		same, err := ar.SameVersion(want, got)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if !same {
			status = "MISMATCH"
		}
		fmt.Printf("release %d retrieval: %s (%d records)\n",
			rel, status, len(got.ChildrenNamed("Record")))
	}

	// Temporal history works on externally-built archives too.
	v1, err := ar.Version(1)
	if err != nil {
		log.Fatal(err)
	}
	pac := v1.Child("Record").ChildText("pac")
	h, err := ar.History("/ROOT/Record[pac=" + pac + "]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprotein %s exists at releases t=[%s]\n", pac, h)
}
