package modeltest

import (
	"fmt"
	"math/rand"

	"xarch/internal/datagen"
)

// builtin are the datagen corpora: OMIM with 70 records, so that a root's
// entries binary-search; XMark with 80 people, so that the kid index does;
// and the company history, with its nested ambiguities.
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
	}},
}
