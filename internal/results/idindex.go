package results

import "hash/maphash"

// idIndex finds a measurement ID's handle — its index in a chunked table the
// caller owns, whose elements hold the ID string — without keeping a second
// copy of the ID. It is an open-addressing table of 2^k uint32 words, probed
// linearly: 0 is an empty word, and any other holds handle+1 in its low k bits
// and a tag in its high 32−k bits. The ID's idHash picks the home word with
// its top k bits and gives the tag with the next 32−k, and a word whose tag
// matches is a hit only if the ID stored at its handle equals the key, so IDs
// with equal hashes simply take different words. The table doubles once it
// would hold more than 3/4 of its length, rebuilt by walking the handles in
// the order the caller's table holds them, so nothing is kept per ID but its
// word: 4 bytes a slot, no pointer for the GC to scan, and a probe reads one
// cache line or two. The words live in segments of at most 16 KiB, so growing
// makes no large-object allocation. Handles are put in order 0, 1, 2, …; the
// zero value is empty; callers synchronize.
type idIndex struct {
	segs [][]uint32 // the 2^bits words, 2^idSegBits to a segment
	bits uint8
	n    uint32 // handles held
}

const (
	idIndexMinBits = 3  // an index's first table is 8 words
	idSegBits      = 12 // 2^12 words, 16 KiB: at 32 KiB a segment is a large object
	idSegMask      = 1<<idSegBits - 1
)

// idSeed seeds idHash for the life of the process, so IDs crafted to collide
// under FNV-1a, which picks the shard, do not collide in a shard's index.
var idSeed = maphash.MakeSeed()

// idHash is the hash an idIndex keys on. maphash.Bytes with idSeed gives the
// same value for an ID still in a decode buffer.
func idHash(id string) uint64 { return maphash.String(idSeed, id) }

func (x *idIndex) word(j uint32) *uint32 { return &x.segs[j>>idSegBits][j&idSegMask] }

// lookupID returns the handle of id, whose idHash is h; idAt returns the ID
// stored at a handle.
func lookupID[S text](x *idIndex, h uint64, id S, idAt func(uint32) string) (uint32, bool) {
	if x.n == 0 {
		return 0, false
	}
	low := uint32(1)<<x.bits - 1
	tag := uint32(h>>32) << x.bits
	for j := uint32(h >> (64 - x.bits)); ; j = (j + 1) & low {
		w := *x.word(j)
		if w == 0 {
			return 0, false
		}
		if w&^low == tag && idAt(w&low-1) == string(id) {
			return w&low - 1, true
		}
	}
}

// put records handle x.n for an ID whose idHash is h and which lookupID
// misses; hashAt returns the idHash of the ID at a handle, for a rebuild.
func (x *idIndex) put(h uint64, hashAt func(uint32) uint64) {
	if x.n+1 > 3<<x.bits>>2 {
		x.bits = max(x.bits+1, idIndexMinBits)
		words := 1 << x.bits
		x.segs = make([][]uint32, max(words>>idSegBits, 1))
		for s := range x.segs {
			x.segs[s] = make([]uint32, min(words, idSegMask+1))
		}
		for i := range x.n {
			x.place(hashAt(i), i)
		}
	}
	x.place(h, x.n)
	x.n++
}

// place writes handle i into the first empty word from h's home.
func (x *idIndex) place(h uint64, i uint32) {
	low := uint32(1)<<x.bits - 1
	j := uint32(h >> (64 - x.bits))
	for *x.word(j) != 0 {
		j = (j + 1) & low
	}
	*x.word(j) = uint32(h>>32)<<x.bits | (i + 1)
}
