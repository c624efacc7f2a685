package keys_test

import (
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// The benchmark harness (benchmark/) reports this layer as
// keys.validate_ms_per_mb; these are its go test -bench handles.

var benchInputs = []struct {
	name string
	spec func() *keys.Spec
	doc  func() *xmltree.Node
}{
	{"omim", datagen.OMIMSpec, func() *xmltree.Node {
		return datagen.NewOMIM(datagen.OMIMConfig{Seed: 1, Records: 200}).Next()
	}},
	{"xmark", datagen.XMarkSpec, func() *xmltree.Node {
		return datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: 120, People: 80, Categories: 20, OpenAucts: 40, ClosedAucts: 30}).Document()
	}},
}

// elementPaths lists the concrete path of every element of doc.
func elementPaths(n *xmltree.Node, prefix keys.Path, out *[]keys.Path) {
	p := prefix.Concat(keys.Path{n.Name})
	*out = append(*out, p)
	for _, c := range n.Children {
		if c.Kind == xmltree.Element {
			elementPaths(c, p, out)
		}
	}
}

var sinkKey *keys.Key

func BenchmarkSpecKeyFor(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			spec := in.spec()
			var paths []keys.Path
			elementPaths(in.doc(), nil, &paths)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkKey = spec.KeyFor(paths[i%len(paths)])
			}
		})
	}
}

var sinkErrs []*keys.ValidationError

func BenchmarkCheckDocument(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			spec, doc := in.spec(), in.doc()
			b.SetBytes(int64(len(doc.XML())))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkErrs = spec.CheckDocument(doc)
			}
			if len(sinkErrs) != 0 {
				b.Fatalf("generated document violates its specification: %v", sinkErrs[0])
			}
		})
	}
}
