package exec

import "repro/internal/datum"

// datumSet is an insertion-ordered set of non-NULL datums, probed under
// datum.Equal. A lookup hashes the probe once and confirms a bucket hit
// with Equal, so hash collisions stay exact. It backs constant IN-list
// probes and semi-join key dedupe. Once built it is read-only and safe for
// concurrent lookups.
type datumSet struct {
	head    map[uint64]int // hash → index of the newest entry with that hash
	entries []setEntry
}

type setEntry struct {
	v    datum.Datum
	h    uint64
	next int // older entry with the same hash, or -1
}

func newDatumSet(capacity int) *datumSet {
	return &datumSet{
		head:    make(map[uint64]int, capacity),
		entries: make([]setEntry, 0, capacity),
	}
}

// add inserts v unless an Equal datum of the same kind is already
// present, and reports whether v was new. v must not be NULL (NULL equals
// nothing). Dedupe stays within a kind because INT/FLOAT equality is not
// transitive past 2^53: 2^53+1 = 2^53.0 = 2^53, yet 2^53+1 <> 2^53, so
// dropping either member of such a pair would change what contains finds.
func (s *datumSet) add(v datum.Datum) bool {
	h := v.Hash()
	first, ok := s.head[h]
	if !ok {
		first = -1
	}
	for i := first; i >= 0; i = s.entries[i].next {
		if e := s.entries[i].v; e.Kind() == v.Kind() && datum.Equal(e, v) {
			return false
		}
	}
	s.head[h] = len(s.entries)
	s.entries = append(s.entries, setEntry{v: v, h: h, next: first})
	return true
}

// contains reports whether the set holds a datum Equal to v.
func (s *datumSet) contains(v datum.Datum) bool {
	i, ok := s.head[v.Hash()]
	if !ok {
		return false
	}
	for ; i >= 0; i = s.entries[i].next {
		if datum.Equal(s.entries[i].v, v) {
			return true
		}
	}
	return false
}

func (s *datumSet) size() int { return len(s.entries) }
