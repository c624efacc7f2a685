package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"xarch"
	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

// sizes fixes how much work one round of a workload does. Op counts are
// constants, never scaled by the clock: --seconds only decides how many
// identical rounds run. The tests use the same code at ~1% of these.
type sizes struct {
	scale     int // dataset size: OMIM records, XMark percent of the default site
	base      int // versions archived during set-up (untimed)
	adds      int // versions added per round (timed)
	versions  int // WriteVersion calls per round
	histories int // History calls per round
	selects   int // Select calls per round
	opens     int // OpenStore calls on the built archive per round
}

// The committed sizes. One round lasts 0.9-3 s on the 2-core sandbox, so
// a 25 s run has eight to twenty-eight of them. The cheap read classes get
// thousands of ops so that each class's stretch of a round lasts tens of
// milliseconds: a stretch much shorter than that sees a host speed the
// round's reference timings do not.
var fullSizes = map[string]sizes{
	"ingest-accrete": {scale: 450, adds: 6, versions: 24, histories: 3000, selects: 500, opens: 12},
	"ingest-churn":   {scale: 60, adds: 6, versions: 24, histories: 4000, selects: 4000, opens: 12},
	"query-mix":      {scale: 60, base: 8, adds: 1, versions: 100, histories: 6000, selects: 6000, opens: 16},
	"serve-mixed":    {adds: 400, versions: 100, histories: 1500, selects: 1500, opens: 20},
}

// fixture is everything a workload's rounds consume, generated from the
// seed during set-up. The engine only ever sees these documents.
type fixture struct {
	spec *xarch.KeySpec
	docs []*xmltree.Node // versions in archive order: base first, then the round's adds
	raws [][]byte        // docs serialized once, so a timed add never pays the generator
	base int             // leading docs already archived in baseDir

	baseDir string // archive built during set-up (query-mix), copied per round

	// The fixed read sequences of one round.
	versionOps []int
	historyOps []string
	selectOps  []string

	genTime time.Duration // time inside internal/datagen
}

func (fx *fixture) inputBytes(from, to int) int64 {
	var n int64
	for _, r := range fx.raws[from:to] {
		n += int64(len(r))
	}
	return n
}

func (fx *fixture) serialize() error {
	for _, d := range fx.docs {
		var b bytes.Buffer
		if err := d.Write(&b, xmltree.WriteOptions{}); err != nil {
			return err
		}
		fx.raws = append(fx.raws, b.Bytes())
	}
	return nil
}

// readOps draws the round's read sequence: uniform version numbers,
// histories of keys that exist in version 1 (the archive never forgets an
// element, so each has a history whatever happened to it later), and
// selects of a key's predicate AND a version range.
func (fx *fixture) readOps(rng *rand.Rand, sz sizes, keys []string, selector, predicate func(key string) string) {
	nv := len(fx.docs)
	for i := 0; i < sz.versions; i++ {
		fx.versionOps = append(fx.versionOps, 1+rng.Intn(nv))
	}
	for i := 0; i < sz.histories; i++ {
		fx.historyOps = append(fx.historyOps, selector(keys[rng.Intn(len(keys))]))
	}
	for i := 0; i < sz.selects; i++ {
		lo := 1 + rng.Intn(nv)
		hi := lo + rng.Intn(nv-lo+1)
		fx.selectOps = append(fx.selectOps,
			fmt.Sprintf("%s AND in %d..%d", predicate(keys[rng.Intn(len(keys))]), lo, hi))
	}
}

// opRNG seeds the op-sequence generator apart from the data generator,
// so the two do not share a stream.
func opRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + 17)) }

// omimFixture is the accretive curated database of the paper's Fig 11:
// each version deletes, inserts and edits a fraction of a percent of the
// records (datagen's OMIM ratios).
func omimFixture(seed int64, sz sizes) (*fixture, error) {
	t0 := time.Now()
	cfg := datagen.DefaultOMIM()
	cfg.Seed, cfg.Records = seed, sz.scale
	g := datagen.NewOMIM(cfg)
	fx := &fixture{spec: g.Spec(), base: sz.base}
	for i := 0; i < sz.base+sz.adds; i++ {
		fx.docs = append(fx.docs, g.Next())
	}
	fx.genTime = time.Since(t0)
	var keys []string
	for _, rec := range fx.docs[0].ChildrenNamed("Record") {
		keys = append(keys, rec.ChildText("Num"))
	}
	record := func(k string) string { return "/ROOT/Record[Num=" + k + "]" }
	fx.readOps(opRNG(seed), sz, keys, record, record)
	return fx, fx.serialize()
}

// xmarkFixture is the paper's worst case (Fig 13/14, App. C): an XMark
// auction site where every version changes 10% of the elements, random
// edits alternating with key modifications.
func xmarkFixture(seed int64, sz sizes) (*fixture, error) {
	t0 := time.Now()
	def := datagen.DefaultXMark()
	pc := func(n int) int { return max(n*sz.scale/100, 2) }
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: seed, Items: pc(def.Items), People: pc(def.People),
		Categories: pc(def.Categories), OpenAucts: pc(def.OpenAucts), ClosedAucts: pc(def.ClosedAucts)})
	fx := &fixture{spec: g.Spec(), base: sz.base}
	doc := g.Document()
	for i := 0; i < sz.base+sz.adds; i++ {
		fx.docs = append(fx.docs, doc)
		if i%2 == 0 {
			doc = g.RandomChanges(doc, 0.10)
		} else {
			doc = g.KeyModChanges(doc, 0.10)
		}
	}
	fx.genTime = time.Since(t0)
	var keys []string
	for _, p := range fx.docs[0].Child("people").ChildrenNamed("person") {
		id, _ := p.Attr("id")
		keys = append(keys, id)
	}
	person := func(k string) string { return "/site/people/person[id=" + k + "]" }
	fx.readOps(opRNG(seed), sz, keys, person, person)
	return fx, fx.serialize()
}

// bumpSpec keys the served database: 32 records by id, each carrying a
// key-derived grade attribute (a slot the attr.idx sidecar indexes) and
// a counter.
const bumpSpec = `(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (grade, {.}))
(/db/rec, (v, {}))
`

const (
	bumpRecords = 32
	bumpGrades  = 4
)

// bumpFixture is xarchload's write model: every snapshot bumps the
// counter of one seeded record and re-sends the whole 32-record
// database. All records exist from version 1, so every selector the
// reader sends resolves; its selects name the grade attribute.
func bumpFixture(seed int64, sz sizes) (*fixture, error) {
	spec, err := xarch.ParseKeySpec(bumpSpec)
	if err != nil {
		return nil, err
	}
	fx := &fixture{spec: spec}
	rng := rand.New(rand.NewSource(seed))
	var vals [bumpRecords]int
	var ids []string
	grade := map[string]string{} // a record's grade is a function of its id
	for id := range vals {
		ids = append(ids, fmt.Sprintf("r%02d", id))
		grade[ids[id]] = fmt.Sprintf("g%d", id%bumpGrades)
	}
	for i := 0; i < sz.adds; i++ {
		vals[rng.Intn(bumpRecords)]++
		var b strings.Builder
		b.WriteString("<db>")
		for id, v := range vals {
			fmt.Fprintf(&b, `<rec grade="%s"><id>%s</id><v>%d</v></rec>`, grade[ids[id]], ids[id], v)
		}
		b.WriteString("</db>")
		doc, err := xarch.ParseXMLString(b.String())
		if err != nil {
			return nil, err
		}
		fx.docs = append(fx.docs, doc)
		fx.raws = append(fx.raws, []byte(b.String()))
	}
	fx.readOps(opRNG(seed), sz, ids,
		func(id string) string { return "/db/rec[id=" + id + "]" },
		func(id string) string { return "@grade=" + grade[id] })
	return fx, nil
}
