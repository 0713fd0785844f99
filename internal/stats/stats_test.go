package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {-5, 1}, {120, 10},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("name", "value", "note")
	tbl.Row("alpha", 3.14159, "first")
	tbl.Row("a-much-longer-name", 42.0, "second")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/rule malformed:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Fatalf("float formatting: %s", out)
	}
	if !strings.Contains(out, "42") || strings.Contains(out, "42.000") {
		t.Fatalf("integral float should drop decimals: %s", out)
	}
	// Columns align: every line has the same prefix width for column 2.
	idx0 := strings.Index(lines[2], "3.142")
	idx1 := strings.Index(lines[3], "42")
	if idx0 != idx1 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1, "1"}, {1.5, "1.500"}, {1234.5678, "1234.6"}, {0.001, "0.001"}, {-3, "-3"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Fatalf("width = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] >= runes[7] {
		t.Fatalf("sparkline not increasing: %q", s)
	}
	// Downsampling long input.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if got := len([]rune(Sparkline(long, 20))); got != 20 {
		t.Fatalf("downsampled width = %d", got)
	}
	// Flat input renders the lowest level everywhere.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat sparkline = %q", flat)
		}
	}
}
