// Curated database: an OMIM-style workflow (§1-§2).
//
// OMIM publishes a new version almost daily but archives only
// occasionally, so the evidence behind a finding can be lost. This example
// simulates 30 daily versions of an OMIM-like database of genetic
// disorders, archives every one of them, and shows that:
//
//   - the whole month of history costs barely more than the latest
//     version alone (accretive data + timestamp inheritance);
//
//   - any day's snapshot is retrievable;
//
//   - the provenance of an individual record — when it appeared, when its
//     text was last revised — is a single query.
//
//     go run ./examples/curation
package main

import (
	"fmt"
	"log"
	"os"

	"xarch"
	"xarch/internal/datagen"
)

func main() {
	cfg := datagen.DefaultOMIM()
	cfg.Records = 300
	g := datagen.NewOMIM(cfg)

	a := xarch.NewStore(datagen.OMIMSpec())
	var lastSize int
	fmt.Println("== Archiving 30 daily versions ==")
	for day := 1; day <= 30; day++ {
		doc := g.Next()
		lastSize = len(doc.IndentedXML())
		if err := a.Add(doc); err != nil {
			log.Fatal(err)
		}
	}
	stats, err := a.Stats()
	if err != nil {
		log.Fatal(err)
	}
	compressed, err := a.CompressedSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("versions archived      %d\n", stats.Versions)
	fmt.Printf("latest version size    %d bytes\n", lastSize)
	fmt.Printf("whole archive size     %d bytes (%.3fx the latest version)\n",
		stats.XMLBytes, float64(stats.XMLBytes)/float64(lastSize))
	fmt.Printf("compressed archive     %d bytes (%.3fx the latest version)\n",
		compressed, float64(compressed)/float64(lastSize))
	fmt.Printf("timestamp inheritance  %d of %d keyed nodes inherit (%.1f%%)\n",
		stats.InheritedTimestamps, stats.KeyedNodes,
		100*float64(stats.InheritedTimestamps)/float64(stats.KeyedNodes))

	// Retrieve day 15 exactly as published.
	v15, err := a.Version(15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== Day-15 snapshot retrieved: %d records ==\n", len(v15.ChildrenNamed("Record")))

	// Provenance of one record: find a record that gained contributors.
	first, err := a.Version(1)
	if err != nil {
		log.Fatal(err)
	}
	num := first.Child("Record").ChildText("Num")
	sel := "/ROOT/Record[Num=" + num + "]"
	h, err := a.History(sel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== Provenance of record %s ==\n", num)
	fmt.Printf("record exists at t=[%s]\n", h)
	textChanges, err := a.ContentHistory(sel + "/Text")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("free-text revisions at versions %v\n", textChanges)

	// The store owns its indexes and keeps them fresh across Adds, so
	// the History call above already went through the §7.2 sorted key
	// lists and Version retrievals go through the §7.1 timestamp trees —
	// no manual index building, no stale results.
	if _, err := a.Version(1); err != nil {
		log.Fatal(err)
	}
	probes, naive := a.ProbeStats()
	fmt.Printf("\n== Timestamp-tree retrieval of day 1 ==\n")
	fmt.Printf("tree probes %d vs naive child scans %d\n", probes, naive)

	// The same month on the external engine: the on-disk archive stores
	// dictionary-interned segments, so its size is a real du(1)-style
	// figure of the raw files, before any outside compressor.
	dir, err := os.MkdirTemp("", "curation-ext-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ext, err := xarch.OpenStore(dir, datagen.OMIMSpec())
	if err != nil {
		log.Fatal(err)
	}
	defer ext.Close()
	g2 := datagen.NewOMIM(cfg)
	for day := 1; day <= 30; day++ {
		if err := ext.Add(g2.Next()); err != nil {
			log.Fatal(err)
		}
	}
	extSize, err := ext.CompressedSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== External engine, same 30 versions ==\n")
	fmt.Printf("on-disk raw            %d bytes (%.3fx the latest version)\n",
		extSize, float64(extSize)/float64(lastSize))
}
