package results

// idIndex finds a measurement ID's handle — its index in a chunked table the
// caller owns, whose elements hold the ID string — without keeping a second
// copy of the ID. It is keyed by the ID's FNV-1a hash, the value that picked
// the shard (so an operation hashes its ID once), and a hit counts only if
// the ID stored at the handle equals the key. An ID whose hash an earlier ID
// took goes into clash, keyed by the ID itself: about 128 of 2^20 random IDs,
// the birthday bound for 32 bits, and crafted collisions only move IDs into a
// map shaped like the string-keyed one this replaces. A byHash slot is 8
// bytes and holds no pointer, so the GC never scans it. The zero value is
// empty; callers synchronize.
type idIndex struct {
	byHash map[uint32]uint32 // ID hash -> handle of the first ID with that hash
	clash  map[string]uint32 // ID -> handle, for IDs whose hash byHash holds for another
}

// lookupID returns the handle of id, whose hash is h; idAt returns the ID
// stored at a handle.
func lookupID[S text](x *idIndex, h uint32, id S, idAt func(uint32) string) (uint32, bool) {
	i, ok := x.byHash[h]
	if !ok || idAt(i) == string(id) {
		return i, ok
	}
	i, ok = x.clash[string(id)]
	return i, ok
}

// put records handle i for id, whose hash is h and which lookupID misses.
func (x *idIndex) put(h uint32, id string, i uint32) {
	if _, taken := x.byHash[h]; !taken {
		if x.byHash == nil {
			x.byHash = make(map[uint32]uint32)
		}
		x.byHash[h] = i
		return
	}
	if x.clash == nil {
		x.clash = make(map[string]uint32)
	}
	x.clash[id] = i
}
