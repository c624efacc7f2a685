package xmltree_test

import (
	"bytes"
	"io"
	"testing"

	"xarch/internal/datagen"
	. "xarch/internal/xmltree"
)

// BenchmarkParse reports the front end's throughput and allocations per
// document on the shapes of benchDocs.
func BenchmarkParse(b *testing.B) {
	for _, bc := range benchDocs() {
		b.Run(bc.name, func(b *testing.B) {
			data := []byte(bc.doc.XML())
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWrite reports the writer's throughput on the same documents,
// compact (what the workloads' fixtures are written as) and indented (the
// layout of every version and archive the engines write).
func BenchmarkWrite(b *testing.B) {
	for _, bc := range benchDocs() {
		for _, opts := range []WriteOptions{{}, {Indent: true}} {
			name := bc.name + "/compact"
			if opts.Indent {
				name = bc.name + "/indented"
			}
			b.Run(name, func(b *testing.B) {
				var out bytes.Buffer
				if err := bc.doc.Write(&out, opts); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(out.Len()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bc.doc.Write(io.Discard, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchDocs are the three document shapes the benchmark's workloads feed
// the front end, at their sizes: an OMIM version (ingest-accrete), an
// XMark site (ingest-churn, query-mix) and the served bump database
// (serve-mixed).
func benchDocs() []benchDoc {
	omim := datagen.DefaultOMIM()
	omim.Seed, omim.Records = 1, 450
	xm := datagen.DefaultXMark()
	xm.Seed = 1
	xm.Items, xm.People, xm.Categories = xm.Items*60/100, xm.People*60/100, xm.Categories*60/100
	xm.OpenAucts, xm.ClosedAucts = xm.OpenAucts*60/100, xm.ClosedAucts*60/100
	return []benchDoc{
		{"omim", datagen.NewOMIM(omim).Next()},
		{"xmark", datagen.NewXMark(xm).Document()},
		{"bump", MustParseString(bumpDoc(32))},
	}
}

type benchDoc struct {
	name string
	doc  *Node
}
