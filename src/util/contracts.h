// Ownership contract annotations for pool-handle APIs.
//
// The zero-copy packet pipeline threads 4-byte PacketRef handles through
// multi-branch drop/PFC/ECN logic; its correctness rests entirely on
// ownership discipline (alloc once, transfer or release exactly once, never
// touch a handle after giving it up).  These macros declare that discipline
// at the API boundary so that one source of truth serves three readers:
//
//   * humans, who see the contract in the signature,
//   * `tools/fastcc-dataflow`, whose token-mode parser reads the macro names
//     directly from headers and checks every call site and every definition
//     body against the declared contract,
//   * clang tooling, because under clang the macros expand to
//     [[clang::annotate]] attributes that survive into the AST.
//
// Semantics (see DESIGN.md §6 "Ownership contracts & dataflow analysis"):
//
//   FASTCC_CONSUMES  on a PacketRef parameter: the callee assumes ownership.
//                    After the call the caller's handle is dead — any
//                    further get()/release()/re-transfer is a
//                    use-after-release.
//   FASTCC_PRODUCES  on a function returning PacketRef: the caller receives
//                    ownership of a live handle and must transfer or release
//                    it on every path to return (else: path-leak).
//   FASTCC_BORROWS   on a PacketRef parameter: the callee may resolve or
//                    inspect the handle but ownership stays with the caller;
//                    the callee must not release or retain it.
//
//   FASTCC_CONSUMES_XSHARD  on a PacketRef parameter: the callee consumes
//                    the handle by serializing the packet *out of its pool*
//                    for a cross-shard handoff (PacketPool::export_release).
//                    The handle ends in the `transferred-cross-shard` state:
//                    it is dead in this shard, and the bytes continue life
//                    in another shard's pool under a new handle.
//   FASTCC_XSHARD_SINK  on a function that puts a packet across a shard
//                    boundary (ShardRouter::reserve, which hands out the
//                    mailbox record export_release serializes into).
//                    fastcc-dataflow requires every live PacketRef reaching
//                    a sink call to be wrapped in a FASTCC_CONSUMES_XSHARD
//                    serialization — a raw handle in a sink argument is a
//                    blocking `raw-cross-shard-handoff` finding, because
//                    handles are meaningless in the destination pool.
//
// Unannotated PacketRef parameters are treated as borrows; a body that
// releases or transfers such a parameter is a contract violation.
//
// ---------------------------------------------------------------------------
// Shard-affinity contracts (see DESIGN.md §10 "Shard-affinity contracts &
// epoch-phase analysis").  The space-parallel runner is only correct if each
// shard touches exclusively shard-owned state during an epoch and all
// cross-shard traffic flows through the typed mailbox handoff.  These macros
// declare that isolation discipline; `tools/fastcc-shardsafe` verifies it
// statically (escape analysis + barrier-phase discipline), complementing the
// schedule-dependent coverage TSan gives at runtime.
//
//   FASTCC_SHARD_LOCAL  on a field or class: the state belongs to exactly one
//                    shard and may only be touched by the worker currently
//                    running that shard (the "worker phase").  A pointer or
//                    reference into shard-local state must never reach a
//                    mailbox cell, a global, or another shard — only values
//                    serialized through FASTCC_CONSUMES_XSHARD may cross.
//                    On a method: the method runs in the worker phase.
//   FASTCC_SHARD_SHARED_RO  on a field: built during (serial) setup, strictly
//                    read-only during the run; every worker may read it
//                    concurrently.  Any worker- or barrier-phase write is a
//                    blocking finding.
//   FASTCC_EPOCH_PUBLISH  on a field: written only inside the barrier
//                    completion step (single-threaded, all workers parked),
//                    relying on the barrier's release ordering for
//                    visibility.  On a method: the method IS barrier
//                    completion-step code.
//   FASTCC_XSHARD_CHANNEL  on a class: the typed conduit for cross-shard
//                    traffic (ShardMailboxes).  Its worker-phase methods
//                    (deposit/drain side) must not be called from barrier
//                    code and its publish-side methods must not be called
//                    from worker code.
//
// ---------------------------------------------------------------------------
// Unit-dimension contracts (see DESIGN.md §12 "Dimensional analysis").
// `sim::Time` and `sim::Rate` are bare arithmetic aliases, so a field or
// parameter declared `double`/`std::uint64_t` carries its physical unit only
// in its name.  These macros make the unit machine-readable;
// `tools/fastcc-units` seeds its dimension lattice from them (alongside the
// declared Time/Rate types) and then checks every expression's arithmetic:
// adding a Time to a Rate, squaring a Time into a Time sink, raw *8/*1000
// conversion factors outside sim/time.h's helpers, and casts that launder a
// dimension are all blocking findings.
//
//   FASTCC_UNIT_NS       the value is a time in nanoseconds (Time-dimension)
//   FASTCC_UNIT_BPNS     the value is a rate in bytes per nanosecond
//                        (Rate-dimension; 12.5 B/ns == 100 Gbps)
//   FASTCC_UNIT_BYTES    the value is a byte count (Bytes-dimension);
//                        Bytes / Time = Rate, Rate x Time = Bytes
//   FASTCC_DIMENSIONLESS the value is a pure number (ratio, multiplier,
//                        count); storing a Time/Rate-dimensioned value into
//                        it is a unit-mix finding
//
// Place the macro at the start of the declaration (field, parameter, or
// function return), e.g. `FASTCC_UNIT_BYTES double& window_bytes;` or
// `FASTCC_UNIT_BPNS double total_send_rate() const;`.
#pragma once

#if defined(__clang__)
#define FASTCC_CONSUMES [[clang::annotate("fastcc::consumes")]]
#define FASTCC_PRODUCES [[clang::annotate("fastcc::produces")]]
#define FASTCC_BORROWS [[clang::annotate("fastcc::borrows")]]
#define FASTCC_CONSUMES_XSHARD [[clang::annotate("fastcc::consumes_xshard")]]
#define FASTCC_XSHARD_SINK [[clang::annotate("fastcc::xshard_sink")]]
#define FASTCC_SHARD_LOCAL [[clang::annotate("fastcc::shard_local")]]
#define FASTCC_SHARD_SHARED_RO [[clang::annotate("fastcc::shard_shared_ro")]]
#define FASTCC_EPOCH_PUBLISH [[clang::annotate("fastcc::epoch_publish")]]
#define FASTCC_XSHARD_CHANNEL [[clang::annotate("fastcc::xshard_channel")]]
#define FASTCC_UNIT_NS [[clang::annotate("fastcc::unit_ns")]]
#define FASTCC_UNIT_BPNS [[clang::annotate("fastcc::unit_bpns")]]
#define FASTCC_UNIT_BYTES [[clang::annotate("fastcc::unit_bytes")]]
#define FASTCC_DIMENSIONLESS [[clang::annotate("fastcc::dimensionless")]]
#else
// GCC warns on unknown scoped attributes (-Wattributes); the token-mode
// analyzer keys on the macro *names* in source, so expanding to nothing
// loses no information outside clang-based tooling.
#define FASTCC_CONSUMES
#define FASTCC_PRODUCES
#define FASTCC_BORROWS
#define FASTCC_CONSUMES_XSHARD
#define FASTCC_XSHARD_SINK
#define FASTCC_SHARD_LOCAL
#define FASTCC_SHARD_SHARED_RO
#define FASTCC_EPOCH_PUBLISH
#define FASTCC_XSHARD_CHANNEL
#define FASTCC_UNIT_NS
#define FASTCC_UNIT_BPNS
#define FASTCC_UNIT_BYTES
#define FASTCC_DIMENSIONLESS
#endif
