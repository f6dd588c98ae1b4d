package main

import "testing"

func TestClaim(t *testing.T) {
	for _, tc := range []struct {
		wins, pairs int
		gain, iqr   float64
		want        string
	}{
		{5, 5, 10, 1, "n/a"},   // every pair won, but too few pairs
		{9, 9, 10, 1, "n/a"},   // still too few
		{9, 10, 10, 1, "yes"},  // 9/10 is enough
		{10, 10, 10, 1, "yes"}, // every pair
		{8, 10, 10, 1, "no"},   // too few wins
		{10, 10, 1, 1, "no"},   // medians apart by no more than the IQR
		{10, 10, -5, 1, "no"},  // worse
		{18, 20, 10, 1, "yes"}, // nine tenths of more than ten
		{17, 20, 10, 1, "no"},
	} {
		if got := claim(tc.wins, tc.pairs, tc.gain, tc.iqr); got != tc.want {
			t.Errorf("claim(%d/%d, gain %v, iqr %v) = %q, want %q", tc.wins, tc.pairs, tc.gain, tc.iqr, got, tc.want)
		}
	}
}
