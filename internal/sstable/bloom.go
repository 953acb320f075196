package sstable

// Per-table bloom filter over cell keys, used by the storage engine to
// prune point lookups: a read probes only the tables whose filter (and key
// range) admit the key, instead of binary-searching every table in the LSM.
// The filter is serialized into the table blob and memory-mapped back on
// Open, so it costs one build per flush/compaction and nothing per read
// beyond the hash probes.

const (
	// bloomBitsPerKey ≈ 10 bits/key with 6 hashes gives a ~1% false
	// positive rate — at 8+ tables that turns "probe every table" into
	// "probe ~1 table" for point reads of existing keys, and ~0 for
	// misses.
	bloomBitsPerKey = 10
	bloomHashes     = 6
)

// bloomHash derives the two base hashes for double hashing (Kirsch &
// Mitzenmacher: g_i = h1 + i*h2 preserves the asymptotic false positive
// rate). FNV-1a over row, a separator, then column; the second hash is a
// mixed rotation of the first, forced odd so successive probes never
// collapse onto one bit. The key comes as strings from a kv.Key and as
// bytes from an encoded entry a compaction copies; neither is converted.
func bloomHash[S string | []byte](row, col S) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(row); i++ {
		h = (h ^ uint64(row[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("ab","c") must differ from ("a","bc")
	for i := 0; i < len(col); i++ {
		h = (h ^ uint64(col[i])) * prime64
	}
	h2 = (h>>33 | h<<31) * 0x9E3779B97F4A7C15
	return h, h2 | 1
}

// bloomAdd sets the key's probe bits in filter.
func bloomAdd[S string | []byte](filter []byte, row, col S) {
	nbits := uint64(len(filter)) * 8
	h1, h2 := bloomHash(row, col)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % nbits
		filter[bit/8] |= 1 << (bit % 8)
	}
}

// bloomMayContain reports whether the filter admits the key. An empty
// filter admits nothing (the table is empty).
func bloomMayContain(filter []byte, row, col string) bool {
	if len(filter) == 0 {
		return false
	}
	nbits := uint64(len(filter)) * 8
	h1, h2 := bloomHash(row, col)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % nbits
		if filter[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
