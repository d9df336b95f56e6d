// Package gen makes every benchmark input from one seed: the 64-pattern
// Zipf pool, the population-weighted client addresses, the ground-truth
// table that decides each measurement's outcome, the closed-loop workloads'
// blocks of submissions and the open-loop workload's Poisson visit schedule.
// The program under test only ever sees what this package generated; the
// same seed gives the same inputs, block for block and visit for visit.
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"encore/internal/api"
	"encore/internal/geo"
	"encore/internal/stats"
)

// Patterns is the size of the pattern pool the batch workloads draw from.
const Patterns = 64

// ZipfS is the exponent of the pool's popularity law: pattern i is drawn
// with weight 1/(i+1)^ZipfS, so the first pattern takes about a fifth of
// all measurements and its aggregator cells are the hub every commit lands
// on (Communication Bottlenecks in Scale-Free Networks, PAPERS.md).
const ZipfS = 1.1

// Outcome probabilities of the ground-truth table.
const (
	// FilteredFailure is how often a measurement of a filtered cell fails.
	FilteredFailure = 0.9
	// OpenSuccess is how often a measurement of an unfiltered cell succeeds.
	OpenSuccess = 0.97
)

// patternKeys and patternURLs hold the pool's names, built once: the
// generator looks one up per measurement.
var patternKeys, patternURLs = func() (keys, urls [Patterns]string) {
	for i := range keys {
		host := fmt.Sprintf("site-%02d.bench.example", i)
		keys[i], urls[i] = "domain:"+host, "http://"+host+"/favicon.ico"
	}
	return keys, urls
}()

// PatternKey is the i-th pool pattern's key, in the form the pipeline's own
// domain patterns take.
func PatternKey(i int) string { return patternKeys[i] }

// PatternURL is the resource a task for the i-th pool pattern fetches.
func PatternURL(i int) string { return patternURLs[i] }

// mix is the SplitMix64 finalizer; every derived value in this package is a
// mix of the seed and a position, so streams can be generated in any order
// and still agree.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return mix(h)
}

// Truth is the seeded ground-truth table: which (pattern, region) cells are
// filtered, and from that what each measurement reports. It stands in for
// the browser and network simulation, which is far too slow to sit on a
// timed path.
type Truth struct {
	seed      uint64
	filtering map[geo.CountryCode]bool
}

// NewTruth builds the table for a seed. Only countries the registry marks as
// known filterers filter anything, and each filters about a third of the
// patterns.
func NewTruth(seed uint64, reg *geo.Registry) *Truth {
	t := &Truth{seed: seed, filtering: make(map[geo.CountryCode]bool)}
	for _, c := range reg.FilteringCountries() {
		t.filtering[c] = true
	}
	return t
}

// Filtered reports whether the region filters the pattern.
func (t *Truth) Filtered(pattern string, region geo.CountryCode) bool {
	if !t.filtering[region] {
		return false
	}
	return hashString(hashString(t.seed^0x7472757468, pattern), string(region))%3 == 0
}

// Success decides one measurement's terminal state from a uniform draw u in
// [0, 1): a filtered cell fails with probability FilteredFailure, any other
// succeeds with probability OpenSuccess.
func (t *Truth) Success(u float64, pattern string, region geo.CountryCode) bool {
	return succeeds(u, t.Filtered(pattern, region))
}

func succeeds(u float64, filtered bool) bool {
	if filtered {
		return u >= FilteredFailure
	}
	return u < OpenSuccess
}

// Zipf samples pool pattern indices by inverse transform over the
// precomputed distribution.
type Zipf struct{ cdf []float64 }

// NewZipf builds the sampler for n items with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// Sample maps a uniform draw to an item index.
func (z *Zipf) Sample(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Block is one client's submissions in a closed-loop workload: a batch of
// measurement IDs that share the client's address, each with its pattern and
// the terminal outcome the truth table gives it from that client's region.
// The init batch and, a window later, the terminal batch of a block are the
// two POSTs the paper's client makes.
type Block struct {
	IP      string
	Region  geo.CountryCode
	IDs     []string
	Pattern []uint8
	Success []bool
	Elapsed []float64
}

// StateOf is the terminal state a measurement reports.
func StateOf(success bool) string {
	if success {
		return "success"
	}
	return "failure"
}

// Fill writes the block's submissions into subs, which holds one entry per
// ID: the inits, or with terminal set the terminal states.
func (b *Block) Fill(subs []api.SubmitRequest, terminal bool) {
	for i, id := range b.IDs {
		subs[i] = api.SubmitRequest{MeasurementID: id, Result: "init"}
		if terminal {
			subs[i].Result, subs[i].ElapsedMillis = StateOf(b.Success[i]), b.Elapsed[i]
		}
	}
}

// Stream generates a workload's blocks in order.
type Stream struct {
	size  int
	next  int
	rng   *stats.RNG
	reg   *geo.Registry
	truth *Truth
	zipf  *Zipf
}

// NewStream starts a block stream. size is the block length (the workload's
// submissions per POST).
func NewStream(seed uint64, size int) *Stream {
	// The stream owns a registry: RandomIP draws from the registry's own
	// generator, so a shared one would make the addresses depend on who else
	// asked. Block allocation does not depend on the registry seed, so every
	// registry resolves every address the same.
	reg := geo.NewRegistry(mix(seed ^ 0x626c6f636b))
	return &Stream{
		size:  size,
		rng:   stats.NewRNG(mix(seed ^ 0x626c6f636b<<8)),
		reg:   reg,
		truth: NewTruth(seed, reg),
		zipf:  NewZipf(Patterns, ZipfS),
	}
}

// Next generates the stream's next block.
func (s *Stream) Next() *Block {
	region := s.reg.SampleCountry(s.rng)
	ip, err := s.reg.RandomIP(region)
	if err != nil {
		panic("gen: sampled a country without an address block: " + err.Error())
	}
	b := &Block{
		IP:      ip.String(),
		Region:  region,
		IDs:     make([]string, s.size),
		Pattern: make([]uint8, s.size),
		Success: make([]bool, s.size),
		Elapsed: make([]float64, s.size),
	}
	// The block's client sits in one region, so which patterns it sees
	// filtered is looked up once per pattern, not once per measurement.
	var filtered [Patterns]int8
	base := s.next * s.size
	for i := 0; i < s.size; i++ {
		h := s.rng.Uint64()
		p := s.zipf.Sample(unit(h))
		if filtered[p] == 0 {
			filtered[p] = -1
			if s.truth.Filtered(PatternKey(p), region) {
				filtered[p] = 1
			}
		}
		b.IDs[i] = measurementID(base+i, h)
		b.Pattern[i] = uint8(p)
		b.Success[i] = succeeds(unit(mix(h)), filtered[p] > 0)
		b.Elapsed[i] = float64(20 + mix(h^1)%400)
	}
	s.next++
	return b
}

// measurementID names the index-th measurement of a stream: the index, which
// makes it unique, and five hash digits.
func measurementID(index int, h uint64) string {
	buf := make([]byte, 0, 16)
	buf = append(buf, 'b')
	buf = strconv.AppendUint(buf, uint64(index), 16)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, h&0xfffff, 16)
	return string(buf)
}

// AppendManifest appends the registration form of a block to buf: per
// measurement one pattern byte, one length byte and the ID. This is all the
// program under test is told ahead of the submissions themselves.
func AppendManifest(buf []byte, b *Block) []byte {
	for i, id := range b.IDs {
		buf = append(buf, b.Pattern[i], byte(len(id)))
		buf = append(buf, id...)
	}
	return buf
}

// ManifestEntry is one decoded manifest record.
type ManifestEntry struct {
	ID      string
	Pattern int
}

// DecodeManifest walks a manifest, calling fn per entry.
func DecodeManifest(p []byte, fn func(ManifestEntry)) error {
	for len(p) > 0 {
		if len(p) < 2 || len(p) < 2+int(p[1]) || int(p[0]) >= Patterns {
			return fmt.Errorf("gen: malformed manifest (%d bytes left)", len(p))
		}
		n := int(p[1])
		fn(ManifestEntry{ID: string(p[2 : 2+n]), Pattern: int(p[0])})
		p = p[2+n:]
	}
	return nil
}

// User agents of the simulated browsers, in the shares Visit draws them.
var userAgents = []struct {
	ua    string
	share float64
}{
	{"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/40.0.2214.91 Safari/537.36", 0.50},
	{"Mozilla/5.0 (Windows NT 6.1; rv:35.0) Gecko/20100101 Firefox/35.0", 0.25},
	{"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10) AppleWebKit/600.1.25 (KHTML, like Gecko) Version/8.0 Safari/600.1.25", 0.15},
	{"Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko", 0.10},
}

// BatchUserAgent is what the closed-loop callers send.
const BatchUserAgent = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/40.0.2214.91 Safari/537.36"

// Visit is one page view of the open-loop workload.
type Visit struct {
	// Due is when the visit is due, as an offset from the start of the run.
	Due       int64 // nanoseconds
	IP        string
	Region    geo.CountryCode
	UserAgent string
	// Dwell is the visitor's expected stay in seconds, which sets how many
	// tasks the scheduler hands out.
	Dwell float64
	// Draw seeds the outcomes of the visit's tasks; see TaskDraw.
	Draw uint64
}

// TaskDraw is the uniform draw that decides the outcome of a visit's k-th
// task.
func (v *Visit) TaskDraw(k int) float64 { return unit(mix(v.Draw + uint64(k))) }

// VisitStream generates one worker's visits: Poisson arrivals at a fixed
// rate, a population-weighted client, and the dwell mix of §6.2 (45 % of
// visitors stay longer than ten seconds, 35 % longer than a minute).
type VisitStream struct {
	rng   *stats.RNG
	reg   *geo.Registry
	truth *Truth
	mean  float64 // nanoseconds between arrivals
	at    float64
}

// NewVisitStream starts worker's visit stream at perSecond arrivals a second.
func NewVisitStream(seed uint64, worker int, perSecond float64) *VisitStream {
	reg := geo.NewRegistry(mix(seed ^ 0x76697369 ^ uint64(worker+1)))
	return &VisitStream{
		rng:   stats.NewRNG(mix(seed ^ 0x76697369 ^ uint64(worker+1)<<32)),
		reg:   reg,
		truth: NewTruth(seed, reg),
		mean:  1e9 / perSecond,
	}
}

// Truth is the table the stream's outcomes come from.
func (s *VisitStream) Truth() *Truth { return s.truth }

// Next generates the stream's next visit.
func (s *VisitStream) Next() Visit {
	s.at += s.rng.Exponential(s.mean)
	region := s.reg.SampleCountry(s.rng)
	ip, err := s.reg.RandomIP(region)
	if err != nil {
		panic("gen: sampled a country without an address block: " + err.Error())
	}
	v := Visit{Due: int64(s.at), IP: ip.String(), Region: region, Draw: s.rng.Uint64()}
	u := s.rng.Float64()
	for _, a := range userAgents {
		v.UserAgent = a.ua
		if u < a.share {
			break
		}
		u -= a.share
	}
	switch d := s.rng.Float64(); {
	case d < 0.55:
		v.Dwell = 1 + 9*s.rng.Float64()
	case d < 0.65:
		v.Dwell = 10 + 50*s.rng.Float64()
	default:
		v.Dwell = 60 + 240*s.rng.Float64()
	}
	return v
}

// Fingerprint hashes the head of every input stream a seed produces: the
// first blocks at both block sizes and the first visits of two workers. Equal seeds give equal fingerprints; the determinism test and
// the provenance stamp both use it.
func Fingerprint(seed uint64) string {
	h := sha256.New()
	var buf []byte
	for _, size := range []int{16, 256} {
		s := NewStream(seed, size)
		for i := 0; i < 64; i++ {
			b := s.Next()
			buf = AppendManifest(buf[:0], b)
			buf = append(buf, b.IP...)
			for _, ok := range b.Success {
				if ok {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
			h.Write(buf)
		}
	}
	for w := 0; w < 2; w++ {
		s := NewVisitStream(seed, w, 500)
		for i := 0; i < 256; i++ {
			v := s.Next()
			fmt.Fprintf(h, "%d %s %s %.6f %d\n", v.Due, v.IP, v.UserAgent, v.Dwell, v.Draw)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
