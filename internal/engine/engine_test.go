package engine

import (
	"strings"
	"testing"
)

// TestParseRoundTrip: every enum value parses back from its String.
func TestParseRoundTrip(t *testing.T) {
	for _, v := range []Variant{Amortized, Checkpointed, Deamortized} {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	for _, c := range []Core{PODS14, FCS} {
		got, err := ParseCore(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCore(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Errorf("ParseVariant(nope) error = %v", err)
	}
	for _, name := range []string{"nope", "auto"} {
		want := `unknown core "` + name + `" (valid: pods14, fcs)`
		if _, err := ParseCore(name); err == nil || err.Error() != want {
			t.Errorf("ParseCore(%s) error = %v, want %q", name, err, want)
		}
	}
}

// TestSupportsMatrix: the reference core runs every variant; the
// successor core is amortized-only, and New enforces it with the
// canonical message.
func TestSupportsMatrix(t *testing.T) {
	for _, v := range []Variant{Amortized, Checkpointed, Deamortized} {
		if !Supports(PODS14, v) {
			t.Errorf("Supports(pods14, %v) = false", v)
		}
	}
	for _, c := range []Core{FCS} {
		if !Supports(c, Amortized) {
			t.Errorf("Supports(%v, amortized) = false", c)
		}
		for _, v := range []Variant{Checkpointed, Deamortized} {
			if Supports(c, v) {
				t.Errorf("Supports(%v, %v) = true", c, v)
			}
			_, err := New(Config{Core: c, Variant: v, Epsilon: 0.25})
			if err == nil || !strings.Contains(err.Error(), "does not support the "+v.String()+" variant") {
				t.Errorf("New(%v, %v) error = %v, want unsupported-variant message", c, v, err)
			}
		}
	}
	if Supports(Core(99), Amortized) || Supports(PODS14, Variant(99)) {
		t.Error("Supports accepted out-of-range enum values")
	}
}

// TestNewValidation: the factory rejects out-of-range enums and bad
// epsilon with messages naming the valid values.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Core: Core(7), Epsilon: 0.25}); err == nil || !strings.Contains(err.Error(), "unknown core 7") {
		t.Errorf("unknown core error = %v", err)
	}
	if _, err := New(Config{Variant: Variant(7), Epsilon: 0.25}); err == nil || !strings.Contains(err.Error(), "unknown variant 7") {
		t.Errorf("unknown variant error = %v", err)
	}
	if _, err := New(Config{Epsilon: 0}); err == nil || !strings.Contains(err.Error(), "epsilon must be in (0, 1]") {
		t.Errorf("epsilon error = %v", err)
	}
}
