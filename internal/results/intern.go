package results

import (
	"slices"

	"encore/internal/core"
)

// The Store and the TaskIndex keep little per measurement ID because what many
// IDs share — the task a measurement answers, the client context it came from
// — lives once, in an append-only valueTable, and the ID's record holds a
// uint32 handle. Nothing in a table is moved or overwritten: a handle, once
// issued, resolves to the same strings for the life of the process, and
// resolving one allocates nothing. The per-ID records are themselves a
// chunked table, found by an idIndex (idindex.go): 4-byte words, each a
// record's handle under a tag of the ID's hash, rebuilt from the records
// when the table doubles, so the ID string is held once, in its record.

// chunkLen is the number of elements per chunk of a chunked vector.
const chunkLen = 256

// chunked is an append-only vector in fixed-size chunks: growing it never
// re-allocates, zeroes or copies what it holds, which a plain append does each
// time a large slice outgrows its capacity. Only the first chunk starts small
// and grows by append, so a store of a few records costs a few records.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

// push appends v and returns its index.
func (c *chunked[T]) push(v T) int {
	ci := c.n / chunkLen
	if ci == len(c.chunks) {
		size := chunkLen
		if ci == 0 {
			size = 8
		}
		c.chunks = append(c.chunks, make([]T, 0, size))
	}
	c.chunks[ci] = append(c.chunks[ci], v)
	c.n++
	return c.n - 1
}

func (c *chunked[T]) at(i int) *T { return &c.chunks[i/chunkLen][i%chunkLen] }

// view returns a copy that stays readable after the lock protecting c is
// released: push never overwrites an element, and the chunk list is cloned
// because growing the first chunk replaces its slice header.
func (c *chunked[T]) view() chunked[T] {
	return chunked[T]{chunks: slices.Clone(c.chunks), n: c.n}
}

// text is a string, or the bytes of one still inside a decode buffer: keys
// generic over it let a wire.RecordView find its table entries without first
// copying its strings out.
type text interface{ ~string | ~[]byte }

// hashText folds s and a field separator into the hash h.
func hashText[S text](h uint32, s S) uint32 { return fnv1a(fnv1a(h, s), "\xff") }

// internKey is a probe for a table of T: it hashes, compares itself with a
// stored value, and makes the value to store when it is new.
type internKey[T any] interface {
	hash() uint32
	same(*T) bool
	own() T
}

// valueTable is an append-only table of distinct values addressed by handle.
// The index, hash → handle, is only a cache: on a collision the later value
// takes the slot and the earlier one, seen again, is stored a second time (so
// a key's hash must cover every field). That keeps it at a dozen bytes per
// value, where a map keyed by the value would hold every string header twice —
// a table whose values are all distinct must not cost more than the inline
// copies it replaces. Callers synchronize.
type valueTable[T any] struct {
	vals  chunked[T]
	index map[uint32]uint32
	last  uint32 // the handle resolved last
}

// intern returns the handle of the value k describes, storing it if the table
// has not seen it. A run of records with one value — a batch shares its client
// context — costs one comparison each after the first.
func intern[T any, K internKey[T]](t *valueTable[T], k K) uint32 {
	if t.vals.n > 0 && k.same(t.vals.at(int(t.last))) {
		return t.last
	}
	h := k.hash()
	if i, ok := t.index[h]; ok && k.same(t.vals.at(int(i))) {
		t.last = i
		return i
	}
	if t.index == nil {
		t.index = make(map[uint32]uint32)
	}
	t.last = uint32(t.vals.push(k.own()))
	t.index[h] = t.last
	return t.last
}

// taskKey is the part of a measurement its task determines; taskBody, the
// owned form, is what the Store's task tables hold.
type taskKey[S text] struct {
	pattern, url S
	typ          core.TaskType
	control      bool
}

type taskBody = taskKey[string]

func (k taskKey[S]) hash() uint32 {
	h := hashText(hashText(fnvOffset, k.pattern), k.url) ^ uint32(k.typ)
	if k.control {
		h = ^h
	}
	return h
}
func (k taskKey[S]) same(v *taskBody) bool {
	return string(k.pattern) == v.pattern && string(k.url) == v.url && k.typ == v.typ && k.control == v.control
}
func (k taskKey[S]) own() taskBody {
	return taskBody{pattern: string(k.pattern), url: string(k.url), typ: k.typ, control: k.control}
}

// clientKey is the part of a measurement the submitting request determines;
// clientCtx, the owned form, is what the Store's client tables hold.
type clientKey[S text] struct {
	ip, region, origin S
	browser            core.BrowserFamily
}

type clientCtx = clientKey[string]

func (k clientKey[S]) hash() uint32 {
	return hashText(hashText(hashText(fnvOffset, k.ip), k.region), k.origin) ^ uint32(k.browser)
}
func (k clientKey[S]) same(v *clientCtx) bool {
	return string(k.ip) == v.ip && string(k.region) == v.region && string(k.origin) == v.origin && k.browser == v.browser
}
func (k clientKey[S]) own() clientCtx {
	return clientCtx{ip: string(k.ip), region: string(k.region), origin: string(k.origin), browser: k.browser}
}

// indexedTask is what a TaskIndex registration shares with the others of the
// same task: a core.Task with its measurement ID and creation instant cleared.
type indexedTask core.Task

func (k indexedTask) hash() uint32 {
	h := hashText(hashText(hashText(fnvOffset, k.PatternKey), k.TargetURL), k.CachedImageURL)
	h ^= uint32(k.Type) ^ uint32(k.TimeoutMillis)<<8
	if k.Control {
		h = ^h
	}
	return h
}
func (k indexedTask) same(v *indexedTask) bool { return k == *v }
func (k indexedTask) own() indexedTask         { return k }
