package extmem

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"

	"xarch/internal/fsio"
)

// The one reading of a directory's committed state. loadState reads
// keydir.idx, dict.txt and meta.txt once and decides what Open does with
// them; Open acts on that decision and CheckArchive reports it, so fsck's
// verdict on the state files is Open's by construction.

// stateFiles are the exact bytes of the three state files as one commit
// wrote them, or as Open read them: what a replica installs.
type stateFiles struct{ keydir, dict, meta []byte }

// stateVerdict is what Open does with a directory's state files.
type stateVerdict int

const (
	// stateFresh: no keydir.idx, and no meta.txt or no dict.txt. Open
	// starts a fresh archive and deletes every segment file. The commit
	// barrier makes dict.txt durable before any keydir.idx, so such a
	// directory holds at most a first commit cut off before its commit
	// point: its meta.txt and segments, which the fresh commit and the
	// sweep replace.
	stateFresh stateVerdict = iota
	// stateHealthy: keydir.idx decodes, dict.txt holds every name it
	// records, and meta.txt is encodeMeta of it byte for byte.
	stateHealthy
	// stateHealMeta: healthy but for meta.txt, which is missing or differs
	// from encodeMeta of the key directory: Open rewrites it.
	stateHealMeta
	// stateRebuild: keydir.idx is missing or does not decode: Open rebuilds
	// it from meta.txt and the segment files meta.txt lists.
	stateRebuild
	// stateRefused: Open fails with the state's err.
	stateRefused
)

// committedState is one reading of a directory's state files.
type committedState struct {
	verdict stateVerdict
	err     error // stateRefused: what Open returns
	// d is the directory Open publishes: keydir.idx decoded, or rebuilt
	// from meta.txt. A refused state keeps a keydir.idx that decoded.
	d    *keyDirectory
	dict *dictionary // nil when dict.txt does not load
	// files are the bytes read, with meta.txt as Open rewrites it when it
	// heals the backup; a rebuild's commit replaces keydir.idx and meta.txt.
	files stateFiles
	// kdErr, dictErr and metaErr say what is wrong with each file; nil
	// when nothing is.
	kdErr, dictErr, metaErr error
}

// errUncommitted marks a state file a fresh start replaces.
var errUncommitted = errors.New("left by a commit cut off before keydir.idx")

// loadState reads and classifies the state files of dir. Its error is
// reserved for a directory in a legacy layout (ErrLegacyFormat); every
// other finding is the verdict's.
func loadState(fs fsio.FS, dir string) (*committedState, error) {
	if err := CheckLegacyLayout(fs, dir); err != nil {
		return nil, err
	}
	st := &committedState{}
	var kdRead, dictRead, metaRead error
	st.files.keydir, kdRead = fs.ReadFile(filepath.Join(dir, keydirFile))
	st.files.dict, dictRead = fs.ReadFile(filepath.Join(dir, dictFile))
	st.files.meta, metaRead = fs.ReadFile(filepath.Join(dir, metaFile))
	missing := func(err error) bool { return errors.Is(err, iofs.ErrNotExist) }
	if missing(kdRead) && (missing(metaRead) || missing(dictRead)) {
		uncommitted := func(err error) error {
			if err == nil {
				return errUncommitted
			}
			return err
		}
		st.verdict, st.kdErr, st.dictErr, st.metaErr = stateFresh, kdRead, uncommitted(dictRead), uncommitted(metaRead)
		return st, nil
	}

	// The key directory is authoritative: whenever it decodes, a damaged
	// meta backup must never reroute a healthy archive into a rebuild.
	st.kdErr = kdRead
	if kdRead == nil {
		d, err := decodeKeyDirectory(st.files.keydir)
		if errors.Is(err, ErrLegacyFormat) {
			return nil, err
		}
		st.d, st.kdErr = d, err
	}
	// The dictionary precedes the segments: payloads reference names by
	// id, and one shorter than the key directory records has lost names
	// the segments may use.
	st.dictErr = dictRead
	if dictRead == nil {
		dict, err := loadDictionary(bytes.NewReader(st.files.dict))
		switch {
		case err != nil:
			st.dictErr = err
		case st.d != nil && len(dict.names) < st.d.names:
			st.dict, st.dictErr = dict, shortDictf(len(dict.names), st.d.names)
		default:
			st.dict = dict
		}
	}
	var meta *keyDirectory
	st.metaErr = metaRead
	switch {
	case metaRead != nil:
	case st.d != nil:
		if want := encodeMeta(st.d); !bytes.Equal(st.files.meta, want) {
			st.metaErr = errors.New("stale backup: differs from keydir.idx")
		}
	default:
		meta, st.metaErr = parseMetaV2(bytes.NewReader(st.files.meta))
	}

	switch {
	case kdRead != nil && metaRead != nil:
		return st.refuse(fmt.Errorf("extmem: corrupt archive directory: %v", metaRead))
	case dictRead != nil:
		return st.refuse(fmt.Errorf("extmem: missing dictionary: %w", dictRead))
	case st.dictErr != nil:
		return st.refuse(st.dictErr)
	case st.d == nil && st.metaErr != nil:
		return st.refuse(fmt.Errorf("extmem: key directory unreadable and %w", st.metaErr))
	case st.d == nil:
		// Corrupt, truncated or missing key directory: scan the segment
		// files meta.txt lists, using its root records for what the
		// payloads cannot supply.
		d, err := rebuildDirectory(fs, dir, meta, st.dict)
		if err != nil {
			return st.refuse(err)
		}
		st.verdict, st.d = stateRebuild, d
	case st.metaErr != nil:
		st.verdict, st.files.meta = stateHealMeta, encodeMeta(st.d)
	default:
		st.verdict = stateHealthy
	}
	return st, nil
}

func (st *committedState) refuse(err error) (*committedState, error) {
	st.verdict, st.err = stateRefused, err
	return st, nil
}

// action says what Open does with a state that is not healthy.
func (st *committedState) action() string {
	switch st.verdict {
	case stateFresh:
		return "Open starts a fresh archive"
	case stateHealMeta:
		return "Open rewrites meta.txt from keydir.idx"
	case stateRebuild:
		return "Open rebuilds keydir.idx from meta.txt"
	case stateRefused:
		return "Open refuses: " + st.err.Error()
	}
	return "Open reopens the archive as it is"
}
