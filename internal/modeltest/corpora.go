package modeltest

import (
	"fmt"
	"math/rand"
	"strings"

	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// builtin are the datagen corpora: OMIM with 70 records, so that a root's
// entries binary-search; the same records under a spec that keys only the
// root, which is then at the frontier, stored raw and read in one piece;
// XMark with 80 people, so that the kid index does; the company history,
// with its nested ambiguities; and keys whose display order is not their
// stored order.
var builtin = []Corpus{
	{"omim", func(seed int64) Fixture {
		g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 100 + seed, Records: 70, DeleteFrac: 0.1, InsertFrac: 0.15, ModifyFrac: 0.15})
		fx := Fixture{Spec: datagen.OMIMSpec()}
		var nums []string
		for range 6 {
			fx.Docs = append(fx.Docs, g.Next())
			for _, rec := range fx.Docs[len(fx.Docs)-1].ChildrenNamed("Record") {
				nums = append(nums, rec.ChildText("Num"))
			}
		}
		fx.Selectors = []string{"/ROOT", "/ROOT/Record", "/ROOT/Record[Num=nosuch]", "/nosuch",
			"/ROOT/Record[Num=nosuch]/deep", "/ROOT/Record[Num=" + nums[0] + "]/Title"}
		fx.Exprs = []string{"changed 2..3", "/ROOT/Record[Num=" + nums[1] + "]/Contributors AND changed"}
		rng := rand.New(rand.NewSource(seed))
		for i := range 8 {
			num := nums[rng.Intn(len(nums))]
			fx.Selectors = append(fx.Selectors, "/ROOT/Record[Num="+num+"]")
			fx.Exprs = append(fx.Exprs, fmt.Sprintf("/ROOT/Record[Num=%s] AND in %d..", num, 1+i%4))
		}
		return fx
	}},
	{"rawomim", func(seed int64) Fixture {
		g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 200 + seed, Records: 30, DeleteFrac: 0.1, InsertFrac: 0.15, ModifyFrac: 0.15})
		fx := Fixture{Spec: keys.MustParseSpec("(/, (ROOT, {}))"),
			Selectors: []string{"/ROOT", "/ROOT/Record", "/ROOT/Record/Num", "/ROOT/Record[Num=x]", "/ROOT/nosuch", "/nosuch"},
			Exprs:     []string{"changed 2..3", "/ROOT AND in 2..", "NOT /ROOT"}}
		for range 6 {
			fx.Docs = append(fx.Docs, g.Next())
		}
		return fx
	}},
	{"xmark", func(seed int64) Fixture {
		g := datagen.NewXMark(datagen.XMarkConfig{Seed: 11 + seed, Items: 20, People: 80, Categories: 4, OpenAucts: 6, ClosedAucts: 4})
		fx := Fixture{Spec: datagen.XMarkSpec()}
		var people []string
		for doc, v := g.Document(), 0; v < 5; v++ {
			fx.Docs = append(fx.Docs, doc)
			for _, p := range doc.Child("people").ChildrenNamed("person") {
				id, _ := p.Attr("id")
				people = append(people, id)
			}
			if v%2 == 0 {
				doc = g.RandomChanges(doc, 0.2)
			} else {
				doc = g.KeyModChanges(doc, 0.2)
			}
		}
		fx.Selectors = []string{"/site/people/person", "/site/people/person[id=nosuch]", "/site/people/nosuch",
			"/site/people/person[nosuch=x]", "/site/regions/africa/item", "/site/people/person[id=nosuch]/name",
			"/site/people/person[id=" + people[0] + "]/name"}
		fx.Exprs = []string{"/site/people/person", "/site/people/person[id=nosuch]", "/site/people/person[id=" + people[1] + "]/name AND changed"}
		rng := rand.New(rand.NewSource(seed))
		for i := range 6 {
			id := people[rng.Intn(len(people))]
			fx.Selectors = append(fx.Selectors, "/site/people/person[id="+id+"]")
			fx.Exprs = append(fx.Exprs, fmt.Sprintf("/site/people/person[id=%s] AND in %d..5", id, 1+i%5))
		}
		return fx
	}},
	{"company", func(int64) Fixture {
		return Fixture{
			Spec: datagen.CompanySpec(),
			Docs: datagen.CompanyVersions(),
			Selectors: []string{"/db/dept[name=finance]", "/db/dept[name=finance]/emp[fn=Jane,ln=Smith]",
				"/db/dept[name=research]", "/db/dept[name=nosuch]", "/db/dept", "/nosuch",
				"/db/dept[name=finance]/emp[fn=Jane,ln=Smith]/fn",
				// Both levels are ambiguous, and the shallower one is
				// reported; then a unique dept with an ambiguous emp level.
				"/db/dept/emp", "/db/dept[name=finance]/emp"},
			Exprs: []string{"/db/dept[name=finance]/emp AND changed", "in 2..3", "NOT /db/dept[name=research]"},
		}
	}}, {"keyorder", keyorder},
}

// keyorder is 70 records under one keyed root, so that both engines'
// lists binary-search, whose keys display in another order than they are
// stored in: "a(" displays before "aB" but its canonical form, escaped,
// sorts after; "x=y" and p\q need escaping too; and a structured key,
// <id><b/></id>, displays as its canonical form e(ide(b)), which is
// another record's text key. The structured record is missing from the
// third version, and the others come and go at random.
func keyorder(seed int64) Fixture {
	rng := rand.New(rand.NewSource(seed))
	fx := Fixture{Spec: keys.MustParseSpec("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (v, {}))"),
		Selectors: []string{"/db", "/db/rec", `/db/rec[id="e(ide(b))"]`, "/db/rec[id=a(]", "/db/rec[id=aB]",
			`/db/rec[id="x=y"]`, `/db/rec[id=p\q]`, "/db/rec[id=r07]", "/db/rec[id=r07]/v", "/db/rec[id=nosuch]",
			"/db/rec[nosuch=x]", `/db/rec[id="e(ide(b))"]/v`},
		Exprs: []string{"/db/rec[id=aB]", `/db/rec[id="e(ide(b))"] AND changed`, "/db/rec[id=a(] AND in 2..", "changed 2.."}}
	ids := []string{"a(", "aB", "x=y", `p\q`, "e(ide(b))"}
	for i := range 65 {
		ids = append(ids, fmt.Sprintf("r%02d", i))
	}
	for v := range 4 {
		var b strings.Builder
		b.WriteString("<db>")
		rec := func(id string) {
			fmt.Fprintf(&b, "<rec><id>%s</id><v>%d</v></rec>", id, rng.Intn(3))
		}
		if v != 2 {
			rec("<b/>")
		}
		for i, id := range ids {
			if i < 5 || rng.Intn(10) != 0 {
				rec(id) // nothing in the ids needs escaping in XML
			}
		}
		b.WriteString("</db>")
		doc, err := xmltree.ParseString(b.String())
		if err != nil {
			panic(err)
		}
		fx.Docs = append(fx.Docs, doc)
	}
	return fx
}
