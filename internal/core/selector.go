package core

import (
	"fmt"
	"strings"

	"xarch/internal/anode"
)

// SelectorStep is one step of a history selector: a tag name plus key-path
// predicates, e.g. emp[fn=John,ln=Doe].
type SelectorStep struct {
	Tag   string
	Preds []Predicate
}

// Predicate constrains one key path to a display value.
type Predicate struct {
	Path  string // key-path name; `\e` for the empty path (also written ".")
	Value string
}

// Matches reports whether an element named name whose key is k (nil for
// an unkeyed element) satisfies the step: the tag names it, and every
// predicate names one of the key's paths with that path's display value.
// It is the one selector-matching rule, shared by the archive walk, the
// §7.2 key lists, both engines' Select and the external engine's
// streaming scan.
func (s *SelectorStep) Matches(name string, k *anode.KeyValue) bool {
	if name != s.Tag {
		return false
	}
	for _, p := range s.Preds {
		ok := false
		for i := 0; i < k.Len(); i++ {
			if k.Paths[i] == p.Path {
				ok = k.Disp[i] == p.Value
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// AmbiguousSelectorError reports that two elements match a selector step;
// path is the selector prefix up to and including the ambiguous step.
func AmbiguousSelectorError(path, labelA, labelB string) error {
	return fmt.Errorf("core: selector is ambiguous at %s: matches %s and %s: %w",
		path, labelA, labelB, ErrAmbiguousSelector)
}

// NoSuchElementError reports that no element matches a selector prefix.
func NoSuchElementError(path string) error {
	return fmt.Errorf("core: no element matches %s: %w", path, ErrNoSuchElement)
}

// badSelector builds a parse error wrapping ErrBadSelector.
func badSelector(format string, args ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(args, ErrBadSelector)...)
}

// ParseSelector parses "/db/dept[name=finance]/emp[fn=John,ln=Doe]".
// Values may be quoted with double quotes to include ']', '/', ',' or '='.
// Parse failures wrap ErrBadSelector.
func ParseSelector(s string) ([]SelectorStep, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "/") {
		return nil, badSelector("selector %q must start with /", s)
	}
	var steps []SelectorStep
	i := 1
	for i < len(s) {
		// Tag name up to '[' or '/'.
		start := i
		for i < len(s) && s[i] != '[' && s[i] != '/' {
			i++
		}
		tag := s[start:i]
		if tag == "" {
			return nil, badSelector("empty step in selector %q", s)
		}
		step := SelectorStep{Tag: tag}
		if i < len(s) && s[i] == '[' {
			i++ // consume '['
			for {
				pred, next, err := parsePredicate(s, i)
				if err != nil {
					return nil, err
				}
				step.Preds = append(step.Preds, pred)
				i = next
				if i >= len(s) {
					return nil, badSelector("unterminated predicate in %q", s)
				}
				if s[i] == ',' {
					i++
					continue
				}
				if s[i] == ']' {
					i++
					break
				}
				return nil, badSelector("bad predicate separator at %d in %q", i, s)
			}
		}
		steps = append(steps, step)
		if i < len(s) {
			if s[i] != '/' {
				return nil, fmt.Errorf("core: expected / at %d in %q", i, s)
			}
			i++
		}
	}
	if len(steps) == 0 {
		return nil, badSelector("empty selector %q", s)
	}
	return steps, nil
}

func parsePredicate(s string, i int) (Predicate, int, error) {
	start := i
	for i < len(s) && s[i] != '=' {
		if s[i] == ']' || s[i] == ',' {
			return Predicate{}, 0, badSelector("predicate missing '=' near %q", s[start:i])
		}
		i++
	}
	if i >= len(s) {
		return Predicate{}, 0, badSelector("predicate missing '=' in %q", s)
	}
	path := strings.TrimSpace(s[start:i])
	if path == "." {
		path = `\e` // normalize to the paper's empty-path notation
	}
	i++ // consume '='
	var value string
	if i < len(s) && s[i] == '"' {
		i++
		vstart := i
		for i < len(s) && s[i] != '"' {
			i++
		}
		if i >= len(s) {
			return Predicate{}, 0, badSelector("unterminated quoted value in %q", s)
		}
		value = s[vstart:i]
		i++ // consume closing quote
	} else {
		vstart := i
		for i < len(s) && s[i] != ',' && s[i] != ']' {
			i++
		}
		value = s[vstart:i]
	}
	return Predicate{Path: path, Value: value}, i, nil
}
