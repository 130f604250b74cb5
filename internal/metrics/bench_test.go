package metrics

import "testing"

func BenchmarkDistObserveQuantile(b *testing.B) {
	d := NewDist()
	for i := 0; i < b.N; i++ {
		d.Observe(float64(i % 1000))
		if i%4096 == 4095 {
			_ = d.P95() // forces re-sort after appends
		}
	}
}

func BenchmarkJainIndex(b *testing.B) {
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	var v float64
	for i := 0; i < b.N; i++ {
		v += JainIndex(xs)
	}
	_ = v
}
