package results

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"encore/internal/core"
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

// BenchmarkTaskIndex measures the collector's attribution index per ID:
// Register of 2^20 fresh IDs spread over a few hundred tasks into an empty
// index, and Lookup of all of them, in a shuffled order and through strings a
// decoder would have made, from the full index. An iteration is one pass over
// the 2^20 IDs, so -benchmem's B/op and allocs/op are per pass.
func BenchmarkTaskIndex(b *testing.B) {
	const n = 1 << 20
	tasks := make([]core.Task, n)
	for i := range tasks {
		tasks[i] = core.Task{
			MeasurementID: fmt.Sprintf("m-%08d", i),
			Type:          core.TaskTypes()[i%3],
			PatternKey:    fmt.Sprintf("domain:site%d.com", i%300),
			TargetURL:     fmt.Sprintf("http://site%d.com/favicon.ico", i%300),
			Created:       time.Unix(1398902400+int64(i), 0),
		}
	}
	perID := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/ID")
	}
	b.Run("Register", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ti := NewTaskIndex()
			for j := range tasks {
				ti.Register(tasks[j])
			}
		}
		perID(b)
	})
	b.Run("Lookup", func(b *testing.B) {
		ti := NewTaskIndex()
		for j := range tasks {
			ti.Register(tasks[j])
		}
		probes := make([]string, n)
		for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
			probes[i] = string([]byte(tasks[j].MeasurementID))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range probes {
				if _, ok := ti.Lookup(id); !ok {
					b.Fatalf("Lookup(%s) missed", id)
				}
			}
		}
		perID(b)
	})
}

// BenchmarkIDIndexRebuild measures the longest pause an idIndex's growth adds
// to one insert: the put that finds the table at its load limit and rebuilds
// it, twice the size, from a task-index shard's IDs. A table of 2^17 words,
// the largest a benchmark shard reaches (about 78k IDs), is rebuilt from 48k
// IDs; one of 2^21 words from 768k.
func BenchmarkIDIndexRebuild(b *testing.B) {
	for _, bits := range []int{17, 21} {
		b.Run(fmt.Sprintf("words=2^%d", bits), func(b *testing.B) {
			var sh taskIndexShard
			for i := 0; i <= 3<<(bits-1)>>2; i++ {
				sh.refs.push(taskRef{id: fmt.Sprintf("m-%08d-%04x", i, i*7919&0xffff)})
				if i < 3<<(bits-1)>>2 {
					sh.ids.put(sh.hashAt(uint32(i)), sh.hashAt)
				}
			}
			full, h := sh.ids, sh.hashAt(sh.ids.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := full // put replaces the copy's words and leaves full's
				x.put(h, sh.hashAt)
				if x.bits != uint8(bits) {
					b.Fatalf("rebuilt into 2^%d words, want 2^%d", x.bits, bits)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/rebuild")
		})
	}
}
