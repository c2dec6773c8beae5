// fastcc-dataflow fixture: cross-shard handoff discipline.  A PacketRef is
// an index into one shard's PacketPool; the only way across a shard
// boundary is the serializing FASTCC_CONSUMES_XSHARD path (export_release),
// which copies the packet's bytes into the record a FASTCC_XSHARD_SINK
// reserve hands out.  Never compiled.

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

namespace fastcc::bad {

void raw_handle_into_mailbox(PacketPool& pool, ShardRouter& router) {
  PacketRef ref = pool.alloc();
  // Smuggling the handle through the sink (here in the ingress-port slot)
  // ships an index the destination shard cannot dereference.
  router.reserve(100, 3, ref.bits);  // expect-dataflow: raw-cross-shard-handoff
  pool.release(ref);
}

void use_after_serialize(PacketPool& pool, ShardRouter& router) {
  PacketRef ref = pool.alloc();
  pool.export_release(ref, router.reserve(100, 3, 0));
  // export_release ended the handle's life in this pool.
  Packet& p = pool.get(ref);  // expect-dataflow: use-after-release
  p.ecn = true;
}

void serialize_borrowed_handle(FASTCC_BORROWS PacketRef ref, PacketPool& pool,
                               ShardRouter& router) {
  // The caller still owns this handle; serializing it out from under them
  // frees a slot they will touch again.
  pool.export_release(ref, router.reserve(100, 3, 0));  // expect-dataflow: contract-violation
}

}  // namespace fastcc::bad
