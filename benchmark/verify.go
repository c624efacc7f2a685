package main

import (
	"bytes"
	"fmt"
	"reflect"

	"xarch"
)

// verify checks the last round's archive, closed and reopened, against
// the in-memory engine fed the same documents: the paper's invariant is
// that every version comes back byte-identical, and the two engines
// promise identical query answers. Every check counts as an attempted
// operation; a mismatch counts as a failed one.
func (r *runner) verify(rec *recorder) error {
	fx := r.fx
	check := func(ok bool, format string, args ...any) {
		rec.attempted++
		if !ok {
			rec.fail(format, args...)
		}
	}

	rep, err := xarch.CheckStore(r.lastDir)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	check(rep.Clean, "fsck: archive not clean: %+v", rep.Items)

	model := xarch.NewStore(fx.spec)
	for i, d := range fx.docs {
		if err := model.Add(d); err != nil {
			return fmt.Errorf("model add %d: %w", i+1, err)
		}
	}
	st, err := xarch.OpenStore(r.lastDir, fx.spec)
	if err != nil {
		return err
	}
	defer st.Close()
	check(st.Versions() == len(fx.docs), "archive holds %d versions, %d were acknowledged", st.Versions(), len(fx.docs))

	// A seeded sample of versions, and always the last one.
	rng := opRNG(r.seed + 1)
	picks := []int{len(fx.docs)}
	for i := 0; i < 3; i++ {
		picks = append(picks, 1+rng.Intn(len(fx.docs)))
	}
	for _, v := range picks {
		var got, want bytes.Buffer
		if err := st.WriteVersion(v, &got); err != nil {
			check(false, "version %d: %v", v, err)
			continue
		}
		if err := model.WriteVersion(v, &want); err != nil {
			return fmt.Errorf("model version %d: %w", v, err)
		}
		check(bytes.Equal(got.Bytes(), want.Bytes()), "version %d differs from the model (%d vs %d bytes)", v, got.Len(), want.Len())
	}
	last, err := st.Version(len(fx.docs))
	if err != nil {
		check(false, "last version: %v", err)
	} else {
		same, err := st.SameVersion(last, fx.docs[len(fx.docs)-1])
		check(err == nil && same, "last version is not the last document sent (%v)", err)
	}

	// 2% of the round's history and select ops, re-issued.
	for i := 0; i < (len(fx.historyOps)+49)/50; i++ {
		sel := fx.historyOps[rng.Intn(len(fx.historyOps))]
		got, err1 := st.History(sel)
		want, err2 := model.History(sel)
		check(err1 == nil && err2 == nil && got.String() == want.String(), "history %s: %v (%v) vs model %v (%v)", sel, got, err1, want, err2)
	}
	for i := 0; i < (len(fx.selectOps)+49)/50; i++ {
		expr := fx.selectOps[rng.Intn(len(fx.selectOps))]
		got, err1 := st.Select(expr)
		want, err2 := model.Select(expr)
		check(err1 == nil && err2 == nil && (len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)),
			"select %s: %v (%v) vs model %v (%v)", expr, got, err1, want, err2)
	}
	return st.Close()
}
