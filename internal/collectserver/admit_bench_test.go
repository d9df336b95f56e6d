package collectserver

import (
	"strconv"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/geo"
	"encore/internal/results"
)

// BenchmarkAdmit measures admission per record for a 256-record batch sharing
// one transport: validation, task attribution, the guard, and building the
// Measurement. The browser family and the region are the transport's, resolved
// once in newTransport, so they are not in the per-record figure.
func BenchmarkAdmit(b *testing.B) {
	const batch, pool = 256, 1 << 16
	b.Run("batch=256", func(b *testing.B) {
		index := results.NewTaskIndex()
		s := New(results.NewStore(), index, geo.NewRegistry(1))
		s.Guard = NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 1 << 40})
		subs := make([]api.SubmitRequest, pool)
		for i := range subs {
			subs[i] = api.SubmitRequest{MeasurementID: "bench-" + strconv.Itoa(i), Result: "success", ElapsedMillis: 120}
			registerTask(index, subs[i].MeasurementID, false)
		}
		userAgent := "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/40.0.2214.91 Safari/537.36"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := s.newTransport("11.0.3.7", userAgent, "origin.example.org", time.Now())
			for j := 0; j < batch; j++ {
				if _, err := s.admit(subs[(i*batch+j)%pool], from); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
	})
}
