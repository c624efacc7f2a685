// Package intervals implements compact sets of version numbers.
//
// An archive timestamp (Buneman et al., "Archiving Scientific Data") is the
// set of versions in which an element exists. Because scientific data is
// largely accretive, an element typically exists for a contiguous range of
// versions, so the set is represented as sorted, disjoint, closed integer
// intervals and rendered in the paper's syntax, e.g. "1-3,5,7-9" for
// {1,2,3,5,7,8,9}.
package intervals

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// run is a closed interval [lo, hi] with lo <= hi.
type run struct {
	lo, hi int
}

// Set is a set of integers stored as sorted, disjoint, non-adjacent runs.
// The zero value is an empty set ready to use. Sets are not safe for
// concurrent mutation.
type Set struct {
	runs []run
}

// New returns a set containing the given versions.
func New(vs ...int) *Set {
	s := &Set{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// FromRange returns the set {lo, lo+1, ..., hi}. It panics if lo > hi.
func FromRange(lo, hi int) *Set {
	if lo > hi {
		panic(fmt.Sprintf("intervals: invalid range %d-%d", lo, hi))
	}
	return &Set{runs: []run{{lo, hi}}}
}

// Parse parses the paper's timestamp syntax: comma-separated values or
// lo-hi ranges, e.g. "1-3,5,7-9". The empty string parses to the empty set.
func Parse(s string) (*Set, error) {
	set := &Set{}
	s = strings.TrimSpace(s)
	if s == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("intervals: empty component in %q", s)
		}
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, err := strconv.Atoi(strings.TrimSpace(part[:i]))
			if err != nil {
				return nil, fmt.Errorf("intervals: bad range start in %q: %v", part, err)
			}
			hi, err := strconv.Atoi(strings.TrimSpace(part[i+1:]))
			if err != nil {
				return nil, fmt.Errorf("intervals: bad range end in %q: %v", part, err)
			}
			if lo > hi {
				return nil, fmt.Errorf("intervals: descending range %q", part)
			}
			set.AddRange(lo, hi)
		} else {
			v, err := strconv.Atoi(part)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("intervals: bad value %q", part)
			}
			set.Add(v)
		}
	}
	return set, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) *Set {
	set, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return set
}

// String renders the set in the paper's syntax ("1-3,5,7-9").
// The empty set renders as "".
func (s *Set) String() string {
	var b []byte
	for i, r := range s.runs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r.lo), 10)
		if r.lo != r.hi {
			b = strconv.AppendInt(append(b, '-'), int64(r.hi), 10)
		}
	}
	return string(b)
}

// Empty reports whether the set has no elements. A nil *Set is empty.
func (s *Set) Empty() bool { return s == nil || len(s.runs) == 0 }

// Len returns the number of elements.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, r := range s.runs {
		n += r.hi - r.lo + 1
	}
	return n
}

// RunCount returns the number of maximal intervals, i.e. the storage cost of
// the timestamp. Accretive data keeps this small (§2 of the paper).
func (s *Set) RunCount() int {
	if s == nil {
		return 0
	}
	return len(s.runs)
}

// Min returns the smallest element. It panics on an empty set.
func (s *Set) Min() int {
	if s.Empty() {
		panic("intervals: Min of empty set")
	}
	return s.runs[0].lo
}

// Max returns the largest element. It panics on an empty set.
func (s *Set) Max() int {
	if s.Empty() {
		panic("intervals: Max of empty set")
	}
	return s.runs[len(s.runs)-1].hi
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if s == nil {
		return false
	}
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= v })
	return i < len(s.runs) && s.runs[i].lo <= v
}

// Add inserts v, coalescing with adjacent runs.
func (s *Set) Add(v int) { s.AddRange(v, v) }

// AddRange inserts every value in [lo, hi]. It panics if lo > hi or lo < 0:
// the set holds version numbers, which are non-negative (negative values
// would also be ambiguous in the "lo-hi" rendering).
func (s *Set) AddRange(lo, hi int) {
	if lo > hi {
		panic(fmt.Sprintf("intervals: invalid range %d-%d", lo, hi))
	}
	if lo < 0 {
		panic(fmt.Sprintf("intervals: negative version %d", lo))
	}
	// Find first run that could touch [lo, hi] (hi+1 adjacency coalesces).
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= lo-1 })
	j := i
	for j < len(s.runs) && s.runs[j].lo <= hi+1 {
		if s.runs[j].lo < lo {
			lo = s.runs[j].lo
		}
		if s.runs[j].hi > hi {
			hi = s.runs[j].hi
		}
		j++
	}
	out := make([]run, 0, len(s.runs)-(j-i)+1)
	out = append(out, s.runs[:i]...)
	out = append(out, run{lo, hi})
	out = append(out, s.runs[j:]...)
	s.runs = out
}

// Remove deletes v if present, splitting a run when necessary.
func (s *Set) Remove(v int) {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= v })
	if i >= len(s.runs) || s.runs[i].lo > v {
		return
	}
	r := s.runs[i]
	switch {
	case r.lo == v && r.hi == v:
		s.runs = append(s.runs[:i], s.runs[i+1:]...)
	case r.lo == v:
		s.runs[i].lo = v + 1
	case r.hi == v:
		s.runs[i].hi = v - 1
	default:
		out := make([]run, 0, len(s.runs)+1)
		out = append(out, s.runs[:i]...)
		out = append(out, run{r.lo, v - 1}, run{v + 1, r.hi})
		out = append(out, s.runs[i+1:]...)
		s.runs = out
	}
}

// Clone returns an independent copy. Cloning nil yields an empty set.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	c := &Set{runs: make([]run, len(s.runs))}
	copy(c.runs, s.runs)
	return c
}

// Equal reports whether s and t contain the same elements.
// A nil set equals an empty set.
func (s *Set) Equal(t *Set) bool {
	var a, b []run
	if s != nil {
		a = s.runs
	}
	if t != nil {
		b = t.runs
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Union returns a new set with every element of s and t.
func (s *Set) Union(t *Set) *Set {
	out := s.Clone()
	if t != nil {
		for _, r := range t.runs {
			out.AddRange(r.lo, r.hi)
		}
	}
	return out
}

// Intersect returns a new set with the elements common to s and t.
func (s *Set) Intersect(t *Set) *Set {
	out := &Set{}
	if s == nil || t == nil {
		return out
	}
	i, j := 0, 0
	for i < len(s.runs) && j < len(t.runs) {
		a, b := s.runs[i], t.runs[j]
		lo := max(a.lo, b.lo)
		hi := min(a.hi, b.hi)
		if lo <= hi {
			out.runs = append(out.runs, run{lo, hi})
		}
		if a.hi < b.hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// Minus returns a new set containing the elements of s not in t.
func (s *Set) Minus(t *Set) *Set {
	if s == nil {
		return &Set{}
	}
	if t == nil || len(t.runs) == 0 {
		return s.Clone()
	}
	out := &Set{}
	j := 0
	for _, r := range s.runs {
		lo := r.lo
		for j < len(t.runs) && t.runs[j].hi < lo {
			j++
		}
		k := j
		for k < len(t.runs) && t.runs[k].lo <= r.hi {
			if t.runs[k].lo > lo {
				out.runs = append(out.runs, run{lo, t.runs[k].lo - 1})
			}
			if t.runs[k].hi+1 > lo {
				lo = t.runs[k].hi + 1
			}
			k++
		}
		if lo <= r.hi {
			out.runs = append(out.runs, run{lo, r.hi})
		}
	}
	return out
}

// Without returns a new set equal to s with the single value v removed.
func (s *Set) Without(v int) *Set {
	out := s.Clone()
	out.Remove(v)
	return out
}

// SupersetOf reports whether every element of t is in s.
func (s *Set) SupersetOf(t *Set) bool {
	if t == nil || len(t.runs) == 0 {
		return true
	}
	if s == nil {
		return false
	}
	i := 0
	for _, r := range t.runs {
		for i < len(s.runs) && s.runs[i].hi < r.lo {
			i++
		}
		if i >= len(s.runs) || s.runs[i].lo > r.lo || s.runs[i].hi < r.hi {
			return false
		}
	}
	return true
}

// Versions returns the elements in ascending order.
func (s *Set) Versions() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Len())
	for _, r := range s.runs {
		for v := r.lo; v <= r.hi; v++ {
			out = append(out, v)
		}
	}
	return out
}

// Runs returns the maximal intervals as [lo, hi] pairs in ascending order.
func (s *Set) Runs() [][2]int {
	if s == nil {
		return nil
	}
	out := make([][2]int, len(s.runs))
	for i, r := range s.runs {
		out[i] = [2]int{r.lo, r.hi}
	}
	return out
}
