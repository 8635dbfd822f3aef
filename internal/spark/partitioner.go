package spark

import "fmt"

// HashPartitioner decides which partition a key belongs to, like
// org.apache.spark.HashPartitioner: fnv-hash of the key modulo the
// partition count. It is deterministic across runs, and it is the only
// placement the engines use, so a placement is known by its partition
// count alone.
type HashPartitioner[K comparable] struct {
	N int
}

// NewHashPartitioner returns a HashPartitioner with n partitions
// (minimum 1).
func NewHashPartitioner[K comparable](n int) HashPartitioner[K] {
	if n < 1 {
		n = 1
	}
	return HashPartitioner[K]{N: n}
}

// Partition maps a key to a partition index in [0, N).
func (p HashPartitioner[K]) Partition(key K) int { return HashKey(key) % p.N }

// HashKey returns a deterministic non-negative hash for any comparable
// key. String keys get a fast path; everything else hashes its
// fmt.Sprint rendering, which is stable for value types. The
// assertion inspects a pointer to the key rather than the key itself:
// boxing a stack pointer into an interface does not allocate, whereas
// boxing a string key would heap-allocate on every shuffled record.
func HashKey[K comparable](key K) int {
	if k, ok := any(&key).(*string); ok {
		return hashString(*k)
	}
	return hashKeySlow(key)
}

// HashBytes is HashKey(string(b)) without the conversion, so a key
// rendered into a reused buffer is hashed where it lies.
func HashBytes(b []byte) int { return hashString(b) }

// hashKeySlow renders uncommon key types; kept out of HashKey so the
// fmt call cannot force the fast path's key to escape.
func hashKeySlow[K comparable](key K) int {
	return hashString(fmt.Sprint(key))
}

// hashString is FNV-1a, inlined so hashing a key allocates nothing
// (hash/fnv's New32a heap-allocates a hasher per call, which used to
// dominate PartitionBy's allocation profile). The values are
// bit-identical to fnv.New32a, so data placement is unchanged.
func hashString[S string | []byte](s S) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return int(h & 0x7fffffff)
}
