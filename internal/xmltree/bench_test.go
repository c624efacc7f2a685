package xmltree_test

import (
	"bytes"
	"testing"

	"xarch/internal/datagen"
	. "xarch/internal/xmltree"
)

// BenchmarkParse reports the front end's throughput and allocations per
// document on the three shapes the benchmark's workloads feed it, at
// their sizes: an OMIM version (ingest-accrete), an XMark site
// (ingest-churn, query-mix) and the served bump database (serve-mixed).
func BenchmarkParse(b *testing.B) {
	omim := datagen.DefaultOMIM()
	omim.Seed, omim.Records = 1, 450
	xm := datagen.DefaultXMark()
	xm.Seed = 1
	xm.Items, xm.People, xm.Categories = xm.Items*60/100, xm.People*60/100, xm.Categories*60/100
	xm.OpenAucts, xm.ClosedAucts = xm.OpenAucts*60/100, xm.ClosedAucts*60/100
	for _, bc := range []struct{ name, doc string }{
		{"omim", datagen.NewOMIM(omim).Next().XML()},
		{"xmark", datagen.NewXMark(xm).Document().XML()},
		{"bump", bumpDoc(32)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := []byte(bc.doc)
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
