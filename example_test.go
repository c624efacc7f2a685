package xarch_test

import (
	"errors"
	"fmt"
	"log"
	"os"
	"strings"

	"xarch"
)

const companySpec = `
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
`

// ExampleNewStore archives three versions of the paper's company database
// with the in-memory engine and asks where an employee lived.
func ExampleNewStore() {
	spec, err := xarch.ParseKeySpec(companySpec)
	if err != nil {
		log.Fatal(err)
	}
	store := xarch.NewStore(spec)
	defer store.Close()

	for _, src := range []string{
		`<db><dept><name>finance</name></dept></db>`,
		`<db><dept><name>finance</name><emp><fn>Jane</fn><ln>Smith</ln><sal>90K</sal></emp></dept></db>`,
		`<db><dept><name>finance</name><emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal></emp></dept></db>`,
	} {
		doc, err := xarch.ParseXMLString(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Add(doc); err != nil {
			log.Fatal(err)
		}
	}

	h, err := store.History("/db/dept[name=finance]/emp[fn=Jane,ln=Smith]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Jane Smith exists at versions %s\n", h)

	v2, err := store.Version(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("her version-2 salary was %s\n", v2.Path("dept", "emp", "sal").Text())
	// Output:
	// Jane Smith exists at versions 2-3
	// her version-2 salary was 90K
}

// ExampleOpenStore runs the identical workload through the external-
// memory engine (§6): same Store interface, bounded-memory ingest.
func ExampleOpenStore() {
	dir, err := os.MkdirTemp("", "xarch-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	spec, err := xarch.ParseKeySpec(companySpec)
	if err != nil {
		log.Fatal(err)
	}
	store, err := xarch.OpenStore(dir, spec, xarch.WithMemoryBudget(64))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	for _, src := range []string{
		`<db><dept><name>finance</name></dept></db>`,
		`<db><dept><name>finance</name><emp><fn>Jane</fn><ln>Smith</ln><sal>90K</sal></emp></dept></db>`,
	} {
		// AddReader tokenizes the version into the store's document slab,
		// checks it against the key specification, sorts it there and
		// merges it; a version over the memory budget is checked and
		// sorted in pieces, into runs, instead of held whole.
		if err := store.AddReader(strings.NewReader(src)); err != nil {
			log.Fatal(err)
		}
	}

	h, err := store.History("/db/dept[name=finance]/emp[fn=Jane,ln=Smith]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Jane Smith exists at versions %s of %d\n", h, store.Versions())
	// Output:
	// Jane Smith exists at versions 2 of 2
}

// ExampleNewStore_options tunes a store with functional options: MD5
// fingerprints and the §4.2 further-compaction weave.
func ExampleNewStore_options() {
	spec, err := xarch.ParseKeySpec(companySpec)
	if err != nil {
		log.Fatal(err)
	}
	store := xarch.NewStore(spec,
		xarch.WithFingerprint(xarch.MD5),
		xarch.WithCompaction(true),
	)
	defer store.Close()

	for _, src := range []string{
		`<db><dept><name>finance</name><emp><fn>Jo</fn><ln>Doe</ln><sal>70K</sal></emp></dept></db>`,
		`<db><dept><name>finance</name><emp><fn>Jo</fn><ln>Doe</ln><sal>75K</sal></emp></dept></db>`,
	} {
		doc, err := xarch.ParseXMLString(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Add(doc); err != nil {
			log.Fatal(err)
		}
	}
	changes, err := store.ContentHistory("/db/dept[name=finance]/emp[fn=Jo,ln=Doe]/sal")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("salary changed at versions %v\n", changes)
	// Output:
	// salary changed at versions [1 2]
}

// ExampleValidateDocument shows structured error handling: key
// violations come back as a *KeyViolationError, version lookups wrap
// ErrNoSuchVersion.
func ExampleValidateDocument() {
	spec, err := xarch.ParseKeySpec(companySpec)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xarch.ParseXMLString(
		`<db><dept><name>finance</name></dept><dept><name>finance</name></dept></db>`)
	if err != nil {
		log.Fatal(err)
	}
	var kv *xarch.KeyViolationError
	if errors.As(xarch.ValidateDocument(spec, doc), &kv) {
		fmt.Printf("document rejected with %d violation(s)\n", len(kv.Violations))
	}

	store := xarch.NewStore(spec)
	defer store.Close()
	_, err = store.Version(7)
	fmt.Println("missing version detected:", errors.Is(err, xarch.ErrNoSuchVersion))
	// Output:
	// document rejected with 1 violation(s)
	// missing version detected: true
}
