package xarch_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"xarch"
	"xarch/internal/modeltest"
)

var modelSeed = flag.Int64("model.seed", 0, "TestModel plays only the random script of this seed")

var model = modeltest.New(
	modeltest.Corpus{Name: "dept", Fixture: func(int64) modeltest.Fixture {
		fx := modeltest.Fixture{Spec: must(xarch.ParseKeySpec(xarch.QuickSpec)),
			Selectors: []string{"/db/dept[name=d1]", "/db/dept[name=d3]", "/db/dept[name=d2]/emp[fn=F2,ln=L2]",
				"/db/dept[name=d1]/emp[fn=F1,ln=L1]/sal", "/db/dept", "/db/dept[name=nosuch]", "not-a-selector"},
			Exprs: []string{"changed", "/db/dept[name=d2] AND in 2..", "/db/dept/emp/sal AND changed 3.."}}
		for n := 1; n <= 6; n++ {
			fx.Docs = append(fx.Docs, must(xarch.ParseXMLString(xarch.DeptVersion(n))))
		}
		return fx
	}},
	modeltest.Corpus{Name: "select", Fixture: func(seed int64) modeltest.Fixture {
		rng := rand.New(rand.NewSource(seed))
		fx := modeltest.Fixture{Spec: must(xarch.ParseKeySpec(xarch.SelectSpec)),
			Selectors: []string{"/db/dept[name=d1]", "/db/dept[name=d2]/emp[fn=F1,ln=L1]", "/db/dept[name=d3]/emp[fn=F2,ln=L2]/sal"},
			Exprs:     append([]string{}, xarch.SelectLeaves[:8]...)}
		for range 6 {
			fx.Docs = append(fx.Docs, must(xarch.ParseXMLString(xarch.SelectVersion(rng))))
		}
		for range 16 {
			fx.Exprs = append(fx.Exprs, xarch.RandExpr(rng, 2))
		}
		return fx
	}},
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestModel plays the random scripts of seeds 1, 2, … against every store
// kind for XARCH_SOAK_SECS (8 by default); -model.seed=N plays seed N.
func TestModel(t *testing.T) {
	secs, err := strconv.Atoi(os.Getenv("XARCH_SOAK_SECS"))
	if os.Getenv("XARCH_SOAK_SECS") == "" {
		secs, err = 8, nil
	}
	switch {
	case testing.Short():
		t.Skip("the model soak is skipped in -short mode")
	case *modelSeed != 0:
		t.Logf("seed %d:\n%s", *modelSeed, model.Generate(t, *modelSeed))
		model.Replay(t, model.Generate(t, *modelSeed))
	case err != nil || secs <= 0:
		t.Fatalf("bad XARCH_SOAK_SECS=%q", os.Getenv("XARCH_SOAK_SECS"))
	default:
		t.Logf("%d scripts", model.Soak(t, 1, time.Duration(secs)*time.Second))
	}
}

// TestModelScripts replays every script in testdata/model, the mutation
// seeds among them.
func TestModelScripts(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "model", "*.txt"))
	if len(files) == 0 {
		t.Fatal("no scripts")
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txt"), func(t *testing.T) {
			model.Seed(t, string(must(os.ReadFile(file))))
		})
	}
}

// The seeds below are the differential suites and the fault soak the model
// replaced, each kept as a fixed corpus, seed, store set and script.

func TestEngineParity(t *testing.T) {
	model.Seed(t, `corpus dept stores default mem
		add xml 1
		add xml 2
		add tree 3
		add xml 4`)
}

// TestEngineParityReopened: what is on disk answers, versions sorted in
// memory and in runs.
func TestEngineParityReopened(t *testing.T) {
	model.Seed(t, `corpus dept stores default stream mem
		add tree 1
		add xml 2
		add xml 3
		add xml 4
		reopen`)
}

// TestStreamingQueryAfterAdd and TestIndexFreshness: a pull checks the
// store in full right after its add, and then its replica.
func TestStreamingQueryAfterAdd(t *testing.T) {
	model.Seed(t, `corpus dept stores default stream mem
		add xml 1
		pull
		add xml 2
		pull
		add xml 5
		pull`)
}

func TestIndexFreshness(t *testing.T) {
	for _, engine := range [][2]string{{"mem", "mem"}, {"ext", "default noindex"}} {
		t.Run(engine[0], func(t *testing.T) {
			model.Seed(t, "corpus dept stores "+engine[1]+`
				add tree 1
				pull
				add tree 2
				pull
				add tree 3
				pull`)
		})
	}
}

// TestWithIndexesOff: the mem kind is WithIndexes(false), and the model
// holds its ProbeStats at zero.
func TestWithIndexesOff(t *testing.T) {
	model.Seed(t, `corpus dept stores mem
		add xml 1
		add tree 2
		empty
		add xml 3`)
}

// TestSelectDifferential: random boolean queries on three random
// histories, before and after compactions and a reopen.
func TestSelectDifferential(t *testing.T) {
	for seed := range 3 {
		t.Run(fmt.Sprint("trial", seed), func(t *testing.T) {
			model.Seed(t, fmt.Sprintf(`corpus select seed %d stores default noindex compacting mem
				add xml 1
				add xml 2
				add tree 3
				add xml 4
				pull
				compact
				reopen
				add xml 5`, seed))
		})
	}
}

// TestSoakRandomFaults: faults at the soak's failpoints and crashes under
// each outage mode, on tree, streamed and batched adds, compactions and a
// pull.
func TestSoakRandomFaults(t *testing.T) {
	model.Seed(t, `corpus dept
		add tree 1
		fault segment.sync
		add xml 2
		crash 9 strict
		add tree 3
		fault scratch.write
		add xml 6
		compact
		crash 30 last-name-only torn
		batch 5 !6
		fault keydir.rename
		empty
		crash 3 names-ahead
		pull
		fault dir.sync 1
		add xml 4
		crash 12 process-kill
		reopen`)
}
