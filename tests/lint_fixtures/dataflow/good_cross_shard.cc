// fastcc-dataflow fixture: the legal cross-shard handoff — the router
// reserves a mailbox record (FASTCC_XSHARD_SINK) and export_release
// (FASTCC_CONSUMES_XSHARD) serializes the handle's packet straight into it.
// The analysis must stay silent on every function here.  Never compiled.
//
// clean-dataflow: raw-cross-shard-handoff

struct PacketPool {
  FASTCC_PRODUCES PacketRef alloc();
  Packet& get(FASTCC_BORROWS PacketRef ref);
  void release(FASTCC_CONSUMES PacketRef ref);
  void export_release(FASTCC_CONSUMES_XSHARD PacketRef ref, Packet& into);
};
struct ShardRouter {
  FASTCC_XSHARD_SINK Packet& reserve(Time arrival, NodeId dst_node,
                                     int dst_port);
};

namespace fastcc::good {

// Reserve-then-serialize in one expression: the handle dies inside
// export_release; the sink only ever hands out bytes to fill.
void serialize_into_reserved_record(PacketPool& pool, ShardRouter& router) {
  PacketRef ref = pool.alloc();
  Packet& p = pool.get(ref);
  p.ecn = false;
  pool.export_release(ref, router.reserve(100, 3, 0));
}

// Branching: one path keeps the packet local, the other crosses the
// boundary; both end the handle's life exactly once.
void local_or_remote(PacketPool& pool, ShardRouter& router, bool remote) {
  PacketRef ref = pool.alloc();
  if (remote) {
    pool.export_release(ref, router.reserve(200, 5, 1));
  } else {
    pool.release(ref);
  }
}

}  // namespace fastcc::good
