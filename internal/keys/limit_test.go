package keys_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xarch"
)

// TestMatcherStateLimit pins the 65,536-state matcher limit with a spec
// whose matcher needs about 2^n states — every path below /r to depth n is
// keyed through wildcards, and key i names the literal a at position i of
// an n-segment path, so a walk must remember where it saw an a: 14 keys
// compile, 15 are refused, through xarch.ParseKeySpec, as an error.
func TestMatcherStateLimit(t *testing.T) {
	for n, ok := range map[int]bool{14: true, 15: false} {
		spec := "(/, (r, {}))\n"
		for i := range n {
			spec += fmt.Sprintf("(/r%s, (_, {}))\n", strings.Repeat("/_", i))
			segs := strings.Split(strings.Repeat("_", n), "")
			segs[i] = "a"
			spec += fmt.Sprintf("(/r/%s, (k%d, {}))\n", strings.Join(segs, "/"), i)
		}
		start := time.Now()
		_, err := xarch.ParseKeySpec(spec)
		t.Logf("n=%d: %v in %v", n, err, time.Since(start))
		if (err == nil) != ok || err != nil && !strings.Contains(err.Error(), "need more than 65536 matcher states") {
			t.Errorf("n=%d: %v, want an error: %v", n, err, !ok)
		}
	}
}
