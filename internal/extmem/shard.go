package extmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/keys"
)

// Sharded run forming: the builder of bounded-memory sorted runs from
// the decompose output is split into a dispatcher plus N worker run
// formers. The dispatcher performs the cheap sequential work
// — decoding tokens and attaching composite keys from the §6.1 key files
// (which are strictly sequential streams) — and routes each top-level
// subtree to one worker; the workers do the expensive part (partial-tree
// building, sorting, run writing) in parallel. Tokens of the document
// root itself are broadcast to every worker, so each worker's runs carry
// the full stem and the existing multi-way run merge combines them
// unchanged: one child's content lives entirely inside one worker, whose
// run order is preserved in the combined run list.

// shardBatch is the dispatcher→worker batch size, in tokens.
const shardBatch = 512

// runBuilder forms the sorted runs of one version from its token stream,
// pushed in document order: feed every token, then finish. It fans the
// tree building out over shards workers; with shards <= 1 it is the
// sequential former. The run list finish returns is ordered worker by
// worker, preserving each worker's creation order (which frontier-content
// concatenation relies on).
type runBuilder struct {
	rf *runFormer // the sequential former; nil when sharded

	d      *shardDispatcher
	ws     []*shardWorker
	wg     sync.WaitGroup
	failed atomic.Bool // a worker carries an error
	fed    int
}

// errWorkerFailed stops the feeding side once a worker has failed; finish
// reports the worker's own error in its place.
var errWorkerFailed = errors.New("extmem: run former worker failed")

// newRunBuilder starts the workers. openKeys supplies the §6.1 key files
// for tokens that carry no inline key; a source whose every keyed open
// token carries its key passes nil.
func newRunBuilder(fs fsio.FS, dict *dictionary, spec *keys.Spec, budget int,
	dir, prefix string, openKeys func(pattern string) (*rawReader, error), shards int) *runBuilder {

	if budget < 16 {
		budget = 16
	}
	if shards <= 1 {
		return &runBuilder{rf: &runFormer{fs: fs, dict: dict, spec: spec, budget: budget, dir: dir, prefix: prefix,
			keyReaders: map[string]*rawReader{}, openKeys: openKeys}}
	}
	perBudget := budget / shards
	if perBudget < 16 {
		perBudget = 16
	}
	b := &runBuilder{ws: make([]*shardWorker, shards)}
	for w := range b.ws {
		st := &shardWorker{ch: make(chan []token, 4)}
		b.ws[w] = st
		b.wg.Add(1)
		go func(st *shardWorker, w int) {
			defer b.wg.Done()
			rf := &runFormer{fs: fs, dict: dict, spec: spec, budget: perBudget, dir: dir,
				prefix:     fmt.Sprintf("%s-w%d", prefix, w),
				keyReaders: map[string]*rawReader{}}
			for batch := range st.ch {
				if st.err != nil {
					continue // drain
				}
				for _, t := range batch {
					if err := rf.feed(t); err != nil {
						st.err = err
						b.failed.Store(true)
						break
					}
				}
			}
			if st.err == nil {
				st.runs, st.stats, st.err = rf.finish()
				if st.err != nil {
					b.failed.Store(true)
				}
			} else {
				st.runs = rf.runs // whatever was written, for cleanup
			}
		}(st, w)
	}
	b.d = &shardDispatcher{
		dict: dict, spec: spec, ws: b.ws,
		keyReaders: map[string]*rawReader{}, openKeys: openKeys,
		batches: make([][]token, shards),
	}
	return b
}

// feed takes the next token of the stream. After an error the caller
// stops feeding and hands the error to finish.
func (b *runBuilder) feed(t token) error {
	if b.rf != nil {
		return b.rf.feed(t)
	}
	if b.fed++; b.fed%shardBatch == 0 && b.failed.Load() {
		return errWorkerFailed
	}
	return b.d.dispatch(t)
}

// finish ends the stream — srcErr is the error that cut it short, nil
// for a complete stream — waits for the workers and returns every run
// file written (also on failure, for cleanup).
func (b *runBuilder) finish(srcErr error) ([]string, SortStats, error) {
	if b.rf != nil {
		if srcErr != nil {
			return b.rf.runs, b.rf.stats, srcErr
		}
		return b.rf.finish()
	}
	for w, st := range b.ws {
		if len(b.d.batches[w]) > 0 && srcErr == nil {
			st.ch <- b.d.batches[w]
		}
		close(st.ch)
	}
	b.wg.Wait()

	var runs []string
	var stats SortStats
	var werr error
	for _, st := range b.ws {
		runs = append(runs, st.runs...)
		stats.RunTokens += st.stats.RunTokens
		if werr == nil {
			werr = st.err
		}
	}
	stats.Runs = len(runs)
	if srcErr == nil || errors.Is(srcErr, errWorkerFailed) {
		return runs, stats, werr
	}
	return runs, stats, srcErr
}

// formRuns forms sorted runs from a stored token stream.
func formRuns(tr *tokenReader, b *runBuilder) ([]string, SortStats, error) {
	var err error
	for err == nil {
		t, ok := tr.take()
		if !ok {
			err = tr.err
			break
		}
		err = b.feed(t)
	}
	return b.finish(err)
}

// shardWorker is one run-former worker of the sharded ingest.
type shardWorker struct {
	ch    chan []token
	runs  []string
	stats SortStats
	err   error
}

// shardDispatcher annotates the token stream with keys and routes
// subtrees to workers.
type shardDispatcher struct {
	dict *dictionary
	spec *keys.Spec
	ws   []*shardWorker

	keyReaders map[string]*rawReader
	openKeys   func(pattern string) (*rawReader, error)

	batches [][]token

	path       []string
	depth      int
	inFrontier int
	cur        int
	childCount int
}

func (d *shardDispatcher) route(w int, t token) {
	if d.batches[w] == nil {
		d.batches[w] = make([]token, 0, shardBatch)
	}
	d.batches[w] = append(d.batches[w], t)
	if len(d.batches[w]) >= shardBatch {
		d.ws[w].ch <- d.batches[w]
		d.batches[w] = nil
	}
}

func (d *shardDispatcher) broadcast(t token) {
	for w := range d.ws {
		d.route(w, t)
	}
}

// dispatch routes one token; leftover batches are flushed by
// runBuilder.finish (so channels are closed exactly once even on error
// paths).
func (d *shardDispatcher) dispatch(t token) error {
	switch t.op {
	case tokOpen:
		if d.inFrontier > 0 {
			d.inFrontier++
			d.depth++
			d.route(d.cur, t)
			return nil
		}
		name, err := d.dict.name(t.tag)
		if err != nil {
			return err
		}
		d.path = append(d.path, name)
		d.depth++
		if t.key == nil {
			k := d.spec.KeyFor(keys.Path(d.path))
			if k == nil {
				return fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(d.path))
			}
			rec, err := d.nextKey(k.Pattern())
			if err != nil {
				return fmt.Errorf("extmem: key file for %s: %w", k.Pattern(), err)
			}
			t.key = rec
		}
		if d.depth == 2 {
			// A new top-level subtree: pick its worker.
			d.cur = d.childCount % len(d.ws)
			d.childCount++
		}
		if d.spec.IsFrontier(keys.Path(d.path)) {
			d.inFrontier = 1
		}
		if d.depth <= 1 {
			d.broadcast(t)
		} else {
			d.route(d.cur, t)
		}
	case tokClose:
		if d.inFrontier > 0 {
			d.inFrontier--
			if d.inFrontier > 0 {
				d.depth--
				d.route(d.cur, t)
				return nil
			}
			// The frontier node's own close: fall through to the
			// keyed-level close handling.
		}
		if d.depth <= 0 {
			return fmt.Errorf("extmem: unbalanced close")
		}
		if len(d.path) > 0 {
			d.path = d.path[:len(d.path)-1]
		}
		if d.depth == 1 {
			d.broadcast(t)
		} else {
			d.route(d.cur, t)
		}
		d.depth--
	default:
		if d.depth <= 1 && d.inFrontier == 0 {
			d.broadcast(t)
		} else {
			d.route(d.cur, t)
		}
	}
	return nil
}

// nextKey pops the next composite key value for the given path pattern.
func (d *shardDispatcher) nextKey(pattern string) (*tkey, error) {
	rr, ok := d.keyReaders[pattern]
	if !ok {
		var err error
		rr, err = d.openKeys(pattern)
		if err != nil {
			return nil, err
		}
		d.keyReaders[pattern] = rr
	}
	return readKeyRecord(rr)
}
