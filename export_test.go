package esds

// CrashReplica crashes replica replica of a running service — of shard
// shard when the service is sharded — so that no strict operation there can
// stabilize any more: the way a test keeps a strict operation pending.
func CrashReplica(s *Service, shard, replica int) {
	c := s.cluster
	if s.ks != nil {
		c = s.ks.Shard(shard)
	}
	c.LocalReplicas()[replica].Crash()
}
