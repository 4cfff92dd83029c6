package loadgen

import (
	"testing"
	"time"
)

// The mega-fleet benchmarks `make bench` runs: synthesis cost per
// fleet size and end-to-end replay cost at a fixed churn rate.

func BenchmarkLoadSynthesize1k(b *testing.B)  { benchSynthesize(b, 1_000) }
func BenchmarkLoadSynthesize10k(b *testing.B) { benchSynthesize(b, 10_000) }

func benchSynthesize(b *testing.B, n int) {
	top := DefaultTopology()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Synthesize(top, n, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if f.Size() != n {
			b.Fatalf("size %d", f.Size())
		}
	}
}

func BenchmarkLoadReplay1k(b *testing.B) {
	top := DefaultTopology()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := Synthesize(top, 1_000, 42)
		if err != nil {
			b.Fatal(err)
		}
		c := NewChurn(f, DefaultMix(), 43)
		b.StartTimer()
		st, err := Run(f, c, DriverOptions{
			Duration:   5 * time.Second,
			SweepEvery: 250 * time.Millisecond,
			Rate:       500,
			Burst:      16,
			Shards:     8,
			Workers:    2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Detected == 0 {
			b.Fatal("replay detected nothing")
		}
	}
}
