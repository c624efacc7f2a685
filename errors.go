package xarch

import (
	"errors"

	"xarch/internal/core"
	"xarch/internal/extmem"
	"xarch/internal/keys"
	"xarch/internal/qlang"
)

// Sentinel errors. Every error returned by a Store wraps one of these (or
// carries a *KeyViolationError), so callers dispatch with errors.Is and
// errors.As instead of matching message strings.
var (
	// ErrNoSuchVersion reports a version number outside 1..Versions().
	ErrNoSuchVersion = core.ErrNoSuchVersion
	// ErrNoSuchElement reports a selector that matches no archived
	// element.
	ErrNoSuchElement = core.ErrNoSuchElement
	// ErrAmbiguousSelector reports a selector whose predicates match more
	// than one element at some step.
	ErrAmbiguousSelector = core.ErrAmbiguousSelector
	// ErrBadSelector reports a selector that does not parse.
	ErrBadSelector = core.ErrBadSelector
	// ErrBadQuery reports a Select expression that does not parse.
	ErrBadQuery = qlang.ErrBadQuery
	// ErrCorruptArchive reports structural corruption discovered while
	// reading an archive.
	ErrCorruptArchive = core.ErrCorruptArchive
	// ErrClosed reports a call on a closed Store.
	ErrClosed = errors.New("xarch: store is closed")
	// ErrDegraded reports that the external engine's writer has been
	// poisoned by a failed durability-critical commit step (a failed
	// fsync or rename): reads keep serving the last committed
	// generation, writes fail fast until the store is reopened.
	ErrDegraded = extmem.ErrDegraded
	// ErrLegacyFormat reports an external archive directory in an
	// on-disk layout this build no longer reads (the monolithic
	// archive.tok, a format-1 key directory or format-1 segments).
	// OpenStore, CheckStore and a replication pull return it without
	// touching the directory; the message names the upgrade path.
	ErrLegacyFormat = extmem.ErrLegacyFormat
)

// KeyViolationError aggregates every violation of a key specification
// found in one document; Add and ValidateDocument return it. Recover it
// with errors.As to inspect the individual violations.
type KeyViolationError = keys.ViolationsError

// KeyViolation describes one violation of a key specification: the path
// of the offending node, the violated key, and what went wrong.
type KeyViolation = keys.ValidationError
