package exec

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects a slice of a deterministic job index space: of the n jobs a
// driver would fan out through Map/ForEach, a shard owns exactly those whose
// index i satisfies i mod Count == Index. The deterministic job indexing is
// what makes the shard a unit of distribution — every participant derives
// the identical index space from the same inputs, so N shards partition the
// work with no coordination, and the modulo assignment interleaves expensive
// and cheap jobs across shards instead of handing one shard a contiguous
// block of the same compiler's compilations.
//
// The zero value owns everything (an unsharded run), so drivers can carry a
// Shard field without nil checks or special cases.
type Shard struct {
	Index int `json:"index"` // this shard's position, in [0, Count)
	Count int `json:"count"` // total shards; <= 1 means unsharded
}

// ParseShard parses the CLI notation "i/N" (e.g. "0/4"). The empty string
// is the unsharded zero value.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("exec: shard %q: want \"i/N\" (e.g. \"0/4\")", s)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Shard{}, fmt.Errorf("exec: shard %q: bad index: %v", s, err)
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return Shard{}, fmt.Errorf("exec: shard %q: bad count: %v", s, err)
	}
	if n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("exec: shard %q: index must be in [0, count) with count >= 1", s)
	}
	return Shard{Index: i, Count: n}, nil
}

// Validate checks the invariant 0 <= Index < Count (or the zero value).
func (s Shard) Validate() error {
	if s == (Shard{}) {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("exec: shard %d/%d: index must be in [0, count)", s.Index, s.Count)
	}
	return nil
}

// String renders the CLI notation. The zero value renders as "0/1".
func (s Shard) String() string {
	if s.Count < 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Owns reports whether job index i belongs to this shard.
func (s Shard) Owns(i int) bool {
	if s.Count <= 1 {
		return true
	}
	return i%s.Count == s.Index
}

// Indices returns this shard's slice of the index space [0, n), in
// increasing order.
func (s Shard) Indices(n int) []int {
	if s.Count <= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, n/s.Count+1)
	for i := s.Index; i < n; i += s.Count {
		out = append(out, i)
	}
	return out
}
