package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so Percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 50, 10},
		{21, 50, 11},
		{100, 90, 90},
		{150, 90, 135},
		{2850, 90, 2565},
	}
	for _, c := range cases {
		got, err := Timing{Name: "t", Samples: seq(c.n)}.Percentile(c.p)
		if err != nil {
			t.Fatalf("n=%d p%g: %v", c.n, c.p, err)
		}
		if got != c.want {
			t.Errorf("n=%d p%g = %g, want %g", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{19, 50}, // 9 beyond the median
		{99, 90}, // 9 beyond p90
		{0, 50},
		{1000, 99.5},
	}
	for _, c := range cases {
		if v, err := (Timing{Name: "t", Samples: seq(c.n)}).Percentile(c.p); err == nil {
			t.Errorf("n=%d p%g = %g, want refusal", c.n, c.p, v)
		}
	}
}

func TestPercentileLeavesSamplesUnsorted(t *testing.T) {
	s := seq(30)
	if _, err := (Timing{Samples: s}).Percentile(50); err != nil {
		t.Fatal(err)
	}
	if s[0] != 30 {
		t.Fatalf("samples reordered: s[0] = %g", s[0])
	}
}

func TestDescribeCarriesCount(t *testing.T) {
	got := Timing{Name: "hit", Samples: seq(20)}.Describe(50)
	if want := "hit p50 = 10.0000 ms (n=20)"; got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}
