package results

import (
	"strconv"
	"testing"
	"time"
)

// BenchmarkStoreAddBatch measures what committing one request's 256 fresh IDs
// costs per record into stores of different sizes. It is flat: a shard's
// entries live in chunks that are never re-allocated. While they lived in one
// slice per shard the figure rose with every regrowth, each of which zeroed
// and copied the shard under its lock.
func BenchmarkStoreAddBatch(b *testing.B) {
	const batch = 256
	for _, size := range []struct {
		name string
		n    int
	}{{"0", 0}, {"1M", 1_000_000}, {"4M", 4_000_000}} {
		b.Run("preloaded="+size.name, func(b *testing.B) {
			s := NewStore()
			ms := batchOf(0, batch)
			next := 0
			var committing time.Duration
			commit := func() {
				for i := range ms {
					ms[i].MeasurementID = "bench-" + strconv.Itoa(next)
					next++
				}
				start := time.Now()
				if _, err := s.AddBatch(ms); err != nil {
					b.Fatal(err)
				}
				committing += time.Since(start)
			}
			for next < size.n {
				commit()
			}
			committing = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
			b.ReportMetric(float64(committing.Nanoseconds())/float64(b.N*batch), "ns/record")
		})
	}
}
