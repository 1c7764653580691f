// Package snapconsumer imports the real shard package and tampers with
// a received snapshot: the published-type fact exported while analyzing
// diacap/internal/shard must travel here and flag the write.
package snapconsumer

import "diacap/internal/shard"

func tamper(s *shard.Snapshot) {
	s.Epoch = 0
}

func buildOwn(n int) *shard.Snapshot {
	s := &shard.Snapshot{}
	s.Loads = make([]int, n) // clean: mutating a fresh local build
	return s
}
