// Package xarch is a key-based archiver for hierarchical scientific data,
// implementing Buneman, Khanna, Tajima and Tan, "Archiving Scientific
// Data" (SIGMOD 2002 / ACM TODS 29(1), 2004).
//
// All versions of a keyed XML database are merged into one archive
// document: elements are identified across versions by relative keys, an
// element is stored once no matter how many versions contain it, and its
// lifetime is a compact timestamp such as "1-3,5,7-9". The archive is
// itself XML, supports retrieval of any version with one scan, answers
// temporal-history queries about any keyed element, and compresses
// extremely well with the included XMill-style compressor.
//
// The public API is the Store interface, implemented by two engines that
// behave identically to callers: NewStore returns the in-memory
// nested-merge archiver (§4), OpenStore the external-memory archiver that
// scales beyond RAM (§6). Stores own their query indexes (§7): an Add
// invalidates them, and the first query that needs one builds it again, so
// no query sees a stale index. All query methods are safe for concurrent
// use.
//
// Quick start:
//
//	spec, _ := xarch.ParseKeySpec(`
//	(/, (db, {}))
//	(/db, (dept, {name}))
//	(/db/dept, (emp, {fn, ln}))
//	`)
//	store := xarch.NewStore(spec)
//	doc, _ := xarch.ParseXMLString(version1XML)
//	store.Add(doc)
//	...
//	v1, _ := store.Version(1)
//	history, _ := store.History("/db/dept[name=finance]/emp[fn=John,ln=Doe]")
//
// Every added version is checked against the key specification, a
// streamed one piece by piece within the memory budget. Behaviour is tuned
// with functional options — WithFingerprint, WithCompaction, WithIndexes,
// WithMemoryBudget — and failures carry structured errors
// (ErrNoSuchVersion, KeyViolationError, ...) for errors.Is / errors.As
// dispatch. See the examples directory for
// complete programs and DESIGN.md for the system inventory.
package xarch

import (
	"io"

	"xarch/internal/fingerprint"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmill"
	"xarch/internal/xmltree"
)

// KeySpec is a key specification: the relative keys a document satisfies
// (§3, Appendix A). Parse one with ParseKeySpec.
type KeySpec = keys.Spec

// Document is an XML value: a tree of element, attribute and text nodes
// with the paper's value equality and ordering (Appendix A).
type Document = xmltree.Node

// VersionSet is a compact set of version numbers — a timestamp such as
// "1-3,5,7-9" (§2).
type VersionSet = intervals.Set

// FingerprintFunc hashes canonical XML values (§4.3). FNV, MD5 and the
// test-only Weak8 are provided.
type FingerprintFunc = fingerprint.Func

// Fingerprint functions for WithFingerprint.
var (
	FNV   FingerprintFunc = fingerprint.FNV
	MD5   FingerprintFunc = fingerprint.MD5
	Weak8 FingerprintFunc = fingerprint.Weak8
)

// ParseKeySpec parses a key specification in the textual format of the
// paper's Appendix B, one relative key per line:
//
//	(/db/dept, (emp, {fn, ln}))
func ParseKeySpec(s string) (*KeySpec, error) {
	return keys.ParseSpecString(s)
}

// ReadKeySpec parses a key specification from a reader.
func ReadKeySpec(r io.Reader) (*KeySpec, error) {
	return keys.ParseSpec(r)
}

// ParseXML parses an XML document into a Document. It reads the subset of
// XML 1.0 the archive stores: UTF-8; elements, attributes, character data
// and CDATA sections; the five predefined entities and decimal or
// hexadecimal character references. Comments, processing instructions and
// a doctype are skipped — entities a doctype declares stay undefined — and
// text that is only white space is dropped. Line ends become \n. A name
// loses its namespace prefix when the prefix is declared as a URL, and
// xmlns declarations are not kept as attributes. A document that is not
// well formed fails with an error that wraps a positioned syntax error
// ("xmltree: parse: line 12, col 7: …"); a failing reader's error comes
// back wrapped as it is.
func ParseXML(r io.Reader) (*Document, error) {
	return xmltree.Parse(r)
}

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) {
	return xmltree.ParseString(s)
}

// ParseVersionSet parses a timestamp such as "1-3,5,7-9".
func ParseVersionSet(s string) (*VersionSet, error) {
	return intervals.Parse(s)
}

// CompressXMill compresses a document with the XMill-style compressor
// (§5.4): structure separated from content, text grouped into containers
// by enclosing element, each container deflated independently.
func CompressXMill(doc *Document) []byte {
	return xmill.Compress(doc)
}

// DecompressXMill reverses CompressXMill.
func DecompressXMill(data []byte) (*Document, error) {
	return xmill.Decompress(data)
}

// ValidateDocument checks a document against a key specification. It
// returns nil when the document satisfies the spec and a
// *KeyViolationError carrying every violation otherwise.
func ValidateDocument(spec *KeySpec, doc *Document) error {
	return spec.CheckDocumentErr(doc)
}
