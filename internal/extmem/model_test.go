package extmem_test

import (
	"testing"

	"xarch/internal/extmem"
	"xarch/internal/modeltest"
)

var model = modeltest.New()

// TestDirectorySeekParityRandomized: History, ContentHistory (classes and
// texts of their errors too), Select and WriteVersion through the key
// directory on random OMIM histories of 70 records, whose roots the entry
// index binary-searches, and on XMark, whose 80 people the kid index does.
func TestDirectorySeekParityRandomized(t *testing.T) {
	for _, script := range []string{`corpus omim seed 0 stores default noindex mem
		add xml 1
		add tree 2`, `corpus omim seed 1 stores default stream mem
		add xml 1
		add xml 2
		add tree 3`, `corpus omim seed 2 stores default compacting mem
		add tree 1
		add xml 2
		add xml 3
		add tree 4`, `corpus xmark stores default noindex mem
		add tree 1
		add tree 2
		add xml 3
		add tree 4
		add tree 5`,
	} {
		model.Seed(t, script)
	}
	fx := model.Fixture(t, "xmark", 0)
	person, _ := fx.Docs[0].Child("people").Children[0].Attr("id")
	extmem.KidIndexSeeks(t, fx.Spec, fx.Docs, "people", "person", "id", person)
}

// TestStreamingHistoryParity: the company history's nested ambiguities,
// answered by the store against a MemStore fed the same versions — not
// against the store's own export.
func TestStreamingHistoryParity(t *testing.T) {
	model.Seed(t, `corpus company stores default stream mem
		add xml 1
		add xml 2
		add xml 3
		add xml 4`)
}
