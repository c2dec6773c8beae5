// Space-parallel sharding: mailboxes and routing for pod-sharded execution.
//
// A sharded run partitions one fat-tree simulation into P logical shards
// (one per pod; spines distributed round-robin), each with its own
// Simulator, PacketPool, and Rng.  Everything inside a shard runs exactly
// as in the serial simulator; only packets crossing a pod boundary leave
// their shard, and they do so through the types in this header:
//
//   Port/Node (egress)
//     pool.export_release(ref, router.reserve(arrival, node, port))
//          |                       |
//          |  live bytes, once     +--put--> pending cell (src, dst):
//          +---------------------------->   record stamped with seq,
//                                           arrival, destination
//   barrier:      publish()  pending cell --swap (or append)--> ready cell
//   destination:  order_ready()  24-byte keys sorted by (arrival, src, seq)
//                 import_packet(rec.pkt) per key: live bytes, once
//                 clear_ready()  the column's records are recycled in place
//
// A transfer therefore copies its live bytes (header line + populated INT
// prefix) twice: out of the source pool into the mailbox record, and out
// of the record into the destination pool.  Records stay where they were
// written; publish swaps whole cells and the destination sorts small keys
// that point at them.  The one exception is a destination that skipped
// the last epoch: its ready cell still holds records, so publish appends
// the new ones behind them, a third live-bytes copy.
//
// Determinism contract: within an epoch each (src, dst) mailbox cell is
// written by exactly one worker (the one running src's shard) in that
// shard's deterministic event order, and stamped with a per-(src, dst)
// transfer sequence number.  The destination delivers in (arrival time,
// src shard, seq) order, so results are byte-identical for any worker
// count — the logical partition is fixed by the topology, not by the
// thread schedule.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"
#include "util/contracts.h"

namespace fastcc::net {

/// Node -> shard assignment for a sharded run.  Built once from the
/// topology (see topo::shard_map_for; a serial run puts every node in
/// shard 0) and read-only afterwards, so every worker may consult it
/// concurrently.
struct ShardMap {
  FASTCC_SHARD_SHARED_RO std::vector<std::int32_t> shard;  ///< By NodeId.
  int count = 1;                    ///< Number of shards.

  int of(NodeId id) const {
    assert(id < shard.size());
    return shard[id];
  }
};

/// Ordered-pair lookahead matrix for conservative synchronization.
///
/// between(s, d) is the minimum latency any influence originating in shard
/// s needs to reach shard d — seeded with the minimum propagation delay
/// over the *direct* boundary links s -> d (observe_link) and closed under
/// path composition by seal() (Floyd-Warshall over the shard graph), so it
/// is a sound bound even for shards connected only through intermediaries.
/// kUnreachable marks pairs no chain of links connects.
///
/// The closure matters for safety, not just precision: the epoch planner
/// advances shard d's horizon to min over s of (earliest-work(s) +
/// between(s, d)).  Without the closure a shard with no *direct* inbound
/// link would see no constraint at all and run arbitrarily far ahead of a
/// two-hop influence.  With it, between() satisfies the triangle
/// inequality by construction, which is exactly the induction the
/// conservative-PDES argument needs (DESIGN.md §9.5).
///
/// Built once from the shard map during (serial) setup, read-only during
/// the run.
class ShardLookahead {
 public:
  static constexpr sim::Time kUnreachable = sim::kMaxTime;

  explicit ShardLookahead(int shards)
      : shards_(shards),
        delay_(static_cast<std::size_t>(shards) * shards, kUnreachable) {
    assert(shards >= 1);
    for (int s = 0; s < shards; ++s) delay_[index(s, s)] = 0;
  }

  /// Min-folds one boundary link's propagation delay into the (src, dst)
  /// entry.  Call once per boundary egress port during setup.
  void observe_link(int src, int dst, sim::Time delay) {
    assert(delay > 0 && "conservative sync needs nonzero boundary latency");
    sim::Time& cell = delay_[index(src, dst)];
    cell = std::min(cell, delay);
  }

  /// Closes the matrix under path composition (all-pairs shortest paths).
  /// Must run after the last observe_link and before the first between().
  void seal() {
    for (int via = 0; via < shards_; ++via) {
      for (int s = 0; s < shards_; ++s) {
        const sim::Time first = delay_[index(s, via)];
        if (first == kUnreachable) continue;
        for (int d = 0; d < shards_; ++d) {
          const sim::Time second = delay_[index(via, d)];
          if (second == kUnreachable) continue;
          sim::Time& cell = delay_[index(s, d)];
          cell = std::min(cell, first + second);
        }
      }
    }
    sealed_ = true;
  }

  /// Minimum latency from shard src to shard dst (0 on the diagonal,
  /// kUnreachable when no path of links connects the pair).
  sim::Time between(int src, int dst) const {
    assert(sealed_ && "seal() the matrix before querying it");
    return delay_[index(src, dst)];
  }

  /// Smallest / largest finite off-diagonal entry (observability; both 0
  /// when the matrix has a single shard and therefore no pairs).
  sim::Time min_window() const { return fold_windows().first; }
  sim::Time max_window() const { return fold_windows().second; }

  int shards() const { return shards_; }

 private:
  std::size_t index(int src, int dst) const {
    assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    return static_cast<std::size_t>(src) * shards_ + dst;
  }

  std::pair<sim::Time, sim::Time> fold_windows() const {
    assert(sealed_);
    sim::Time lo = 0;
    sim::Time hi = 0;
    bool any = false;
    for (int s = 0; s < shards_; ++s) {
      for (int d = 0; d < shards_; ++d) {
        if (s == d || delay_[index(s, d)] == kUnreachable) continue;
        const sim::Time w = delay_[index(s, d)];
        lo = any ? std::min(lo, w) : w;
        hi = any ? std::max(hi, w) : w;
        any = true;
      }
    }
    return {lo, hi};
  }

  int shards_;
  bool sealed_ = false;
  FASTCC_SHARD_SHARED_RO std::vector<sim::Time> delay_;  ///< Row-major.
};

/// A packet serialized out of its source shard's pool, in flight between
/// shards.  Lives in place in its mailbox cell from reserve() until the
/// destination's clear_ready(): only `pkt`'s live bytes (copy_live) are
/// ever written — the INT records past int_count hold whatever an earlier
/// transfer left there and are never read.  `arrival` already includes the
/// boundary link's serialization + propagation time; (dst_node, dst_port)
/// is the ingress on the destination side.
struct CrossShardPacket {
  Packet pkt;
  sim::Time arrival = 0;
  NodeId dst_node = kInvalidNode;
  int dst_port = -1;
  int src_shard = -1;
  std::uint64_t seq = 0;  ///< Per-(src, dst) shard-pair transfer counter.
};

/// Drain key for one published transfer: the destination sorts these
/// instead of the records.  `index` is the record's position in its
/// (src, dst) cell; cells keep records in seq order, so (arrival, src,
/// index) orders exactly as (arrival, src shard, seq).
struct DrainKey {
  sim::Time arrival;
  std::uint32_t src;
  std::uint32_t index;
  const CrossShardPacket* rec;

  bool operator<(const DrainKey& o) const {
    if (arrival != o.arrival) return arrival < o.arrival;
    if (src != o.src) return src < o.src;
    return index < o.index;
  }
};
static_assert(sizeof(DrainKey) == 24, "drain keys must stay 24 bytes");

/// Abstract destination for packets leaving a shard.  Port::start_tx and
/// Node::send_pfc reserve a mailbox record instead of scheduling a local
/// delivery when the egress port is marked as a shard boundary, and
/// serialize the packet straight into it:
///
///   pool->export_release(ref, sink->reserve(arrival, dst_node, dst_port));
///
/// The sink hands out bytes to fill, never takes a handle.
class CrossShardSink {
 public:
  virtual ~CrossShardSink() = default;

  /// Reserves the mailbox record for one boundary-crossing packet and
  /// returns its packet bytes for export_release to fill.  `arrival` is the
  /// absolute simulated time the packet reaches `dst_node` on its
  /// `dst_port`.  The reference is valid until the next reserve().
  FASTCC_XSHARD_SINK virtual Packet& reserve(sim::Time arrival,
                                             NodeId dst_node,
                                             int dst_port) = 0;
};

/// Failure path of check_arrival_not_past, kept out of line so the check
/// adds one compare and a never-taken branch to the injection loop.
[[noreturn, gnu::cold, gnu::noinline]] inline void abort_arrival_in_past(
    int shard, sim::Time arrival, sim::Time now) {
  std::fprintf(stderr,
               "fastcc: cross-shard packet for shard %d arrives at %lld ns, "
               "before the shard's clock at %lld ns: the lookahead does not "
               "bound this boundary link\n",
               shard, static_cast<long long>(arrival),
               static_cast<long long>(now));
  std::abort();
}

/// Always-on lookahead check for one injected transfer (kept under
/// NDEBUG): an arrival before the destination shard's clock means the
/// lookahead matrix does not bound some boundary link, and the run would
/// otherwise deliver into the past.  Aborts naming the shard and both times.
inline void check_arrival_not_past(int shard, sim::Time arrival,
                                   sim::Time now) {
  if (arrival < now) [[unlikely]] abort_arrival_in_past(shard, arrival, now);
}

/// P x P matrix of single-writer mailboxes with epoch-barrier publication.
///
/// Threading protocol (the whole reason this class is safe without locks):
///   * During an epoch, cell (s, d) of `pending_` is written only by the
///     worker running shard s.  No one reads it.
///   * publish() runs single-threaded inside the barrier completion step;
///     it hands every pending cell to the ready side.
///   * During the next epoch, cell (s, d) of `ready_` is read only by the
///     worker running shard d.  No one writes it.
/// The epoch barrier's acquire/release ordering makes each hand-off visible.
///
/// Records are written once, in place: put() hands out the next slot of
/// the pending cell, publish() swaps the pending cell with the (empty)
/// ready cell, and the reader sorts keys that point at the records.  A
/// cell's slots are recycled, never freed, so once every cell has reached
/// its high-water size the mailboxes allocate nothing.
///
/// fastcc-shardsafe enforces the protocol statically: the class is the typed
/// FASTCC_XSHARD_CHANNEL, its deposit/drain methods are worker-phase
/// (FASTCC_SHARD_LOCAL) and its publish side is barrier-phase
/// (FASTCC_EPOCH_PUBLISH); the places where one side legitimately touches
/// the other side's cells carry reasoned allows below.
class FASTCC_XSHARD_CHANNEL ShardMailboxes {
 public:
  explicit ShardMailboxes(int shards)
      : shards_(shards),
        pending_(static_cast<std::size_t>(shards) * shards),
        ready_(static_cast<std::size_t>(shards) * shards),
        seq_(static_cast<std::size_t>(shards) * shards, 0) {
    assert(shards >= 1);
  }

  /// Reserves the next record of the (src, dst) pending cell, stamps its
  /// sequence number, arrival and destination ingress, and folds the
  /// arrival into the cell's release horizon.  The caller fills rec.pkt
  /// (export_release).  Caller must be the worker running shard `src`.
  FASTCC_SHARD_LOCAL CrossShardPacket& put(int src, int dst, sim::Time arrival,
                                           NodeId dst_node, int dst_port) {
    const std::size_t i = index(src, dst);
    Cell& c = pending_[i];
    CrossShardPacket& rec = c.next();
    rec.arrival = arrival;
    rec.dst_node = dst_node;
    rec.dst_port = dst_port;
    rec.src_shard = src;
    rec.seq = seq_[i]++;
    c.release = std::min(c.release, arrival);
    return rec;
  }

  /// Hands every pending cell to the ready side: a swap when the ready cell
  /// is empty (the common case; the drained buffer goes back to the writer
  /// for reuse), an append when its destination skipped the last epoch and
  /// still holds records.  Either way the cell's release horizon, folded at
  /// put() time, carries over, so publish() costs O(cells) plus the rare
  /// append.  Must run while all workers are parked at the epoch barrier
  /// (single-threaded).
  FASTCC_EPOCH_PUBLISH void publish() {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      Cell& p = pending_[i];
      if (p.size == 0) continue;
      Cell& r = ready_[i];
      // The publish step is the ownership handoff point: all workers are
      // parked, so taking or draining the worker-side cell here cannot race.
      if (r.size == 0) {
        // lint:allow(epoch-phase-write -- barrier step swaps worker cells while all workers are parked)
        std::swap(p, r);
        continue;
      }
      r.append(p);
      // lint:allow(epoch-phase-write -- barrier step drains worker cells while all workers are parked)
      p.clear();
    }
  }

  /// Fills `keys` with one key per transfer published for shard `dst`, in
  /// the canonical injection order (arrival, src shard, seq).  The records
  /// stay in place until clear_ready(dst).  Caller must be the worker
  /// running shard `dst`.
  FASTCC_SHARD_LOCAL void order_ready(int dst, std::vector<DrainKey>& keys) const {
    keys.clear();
    for (int src = 0; src < shards_; ++src) {
      const Cell& c = ready_[index(src, dst)];
      for (std::size_t k = 0; k < c.size; ++k) {
        keys.push_back({c.recs[k].arrival, static_cast<std::uint32_t>(src),
                        static_cast<std::uint32_t>(k), &c.recs[k]});
      }
    }
    std::sort(keys.begin(), keys.end());
  }

  /// Empties every ready cell destined for `dst` (its slots are kept for
  /// reuse) and resets their release horizons; the next publish()
  /// re-derives them from whatever lands later.  Invalidates the keys of
  /// order_ready(dst).  Caller must be the worker running shard `dst`.
  FASTCC_SHARD_LOCAL void clear_ready(int dst) {
    for (int src = 0; src < shards_; ++src) {
      // Single-reader drain: only shard dst's worker touches column (*, dst)
      // of the ready side, and only after the publishing barrier.
      // lint:allow(epoch-phase-write -- reader-owned column drain after the publish barrier)
      ready_[index(src, dst)].clear();
    }
  }

  /// Release horizon of the (src, dst) ready cell: the earliest arrival
  /// among its published-but-undrained transfers, sim::kMaxTime when the
  /// cell is empty.  This is what lets an idle destination *skip* an epoch
  /// without draining: retained records stay exactly as published, and the
  /// planner consults the horizon (earliest_ready) instead of the records.
  FASTCC_EPOCH_PUBLISH sim::Time ready_release(int src, int dst) const {
    return ready_[index(src, dst)].release;
  }

  /// Earliest published-but-undrained arrival destined for `dst` over every
  /// source (the destination's inbound release horizon); sim::kMaxTime when
  /// nothing is in flight toward it.  Barrier phase: the epoch planner
  /// reads it to size horizons and pick the active set.
  FASTCC_EPOCH_PUBLISH sim::Time earliest_ready(int dst) const {
    sim::Time earliest = sim::kMaxTime;
    for (int src = 0; src < shards_; ++src) {
      earliest = std::min(earliest, ready_release(src, dst));
    }
    return earliest;
  }

  /// True when no transfer is pending or published anywhere: the sharded
  /// runner's postcondition of a full drain.  Must run at the barrier or
  /// after the workers have joined (single-threaded).
  FASTCC_EPOCH_PUBLISH bool all_empty() const {
    for (const Cell& c : pending_)
      if (c.size != 0) return false;
    for (const Cell& c : ready_)
      if (c.size != 0) return false;
    return true;
  }

  /// Total transfers ever deposited, over all shard pairs (stats).
  std::uint64_t total_transfers() const {
    std::uint64_t n = 0;
    for (const std::uint64_t s : seq_) n += s;
    return n;
  }

  int shards() const { return shards_; }

 private:
  /// One (src, dst) cell: `recs[0, size)` are live records in seq order;
  /// slots past `size` are recycled by next().  `release` is the earliest
  /// live arrival (sim::kMaxTime when empty).
  struct Cell {
    std::vector<CrossShardPacket> recs;
    std::size_t size = 0;
    sim::Time release = sim::kMaxTime;

    CrossShardPacket& next() {
      // Growth relocates the live records once per doubling; a cell at its
      // high-water size reuses its slots from then on.
      if (size == recs.size()) recs.resize(std::max<std::size_t>(8, 2 * size));
      return recs[size++];
    }

    /// Appends `from`'s records after this cell's own (both are seq-ordered
    /// and every record of `from` is newer), copying live bytes only.
    void append(const Cell& from) {
      for (std::size_t k = 0; k < from.size; ++k) {
        const CrossShardPacket& src = from.recs[k];
        CrossShardPacket& dst = next();
        copy_live(dst.pkt, src.pkt);
        dst.arrival = src.arrival;
        dst.dst_node = src.dst_node;
        dst.dst_port = src.dst_port;
        dst.src_shard = src.src_shard;
        dst.seq = src.seq;
      }
      release = std::min(release, from.release);
    }

    void clear() {
      size = 0;
      release = sim::kMaxTime;
    }
  };

  std::size_t index(int src, int dst) const {
    assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    return static_cast<std::size_t>(src) * shards_ + dst;
  }

  int shards_;
  FASTCC_SHARD_LOCAL std::vector<Cell> pending_;   ///< Writer-side cells.
  FASTCC_EPOCH_PUBLISH std::vector<Cell> ready_;   ///< Published cells.
  FASTCC_SHARD_LOCAL std::vector<std::uint64_t> seq_;
};

/// The per-source-shard CrossShardSink: looks up the destination's shard in
/// the ShardMap and reserves the record in the matching mailbox cell.  One
/// router per shard; every boundary egress port of that shard points at it,
/// so all writes funnel through the single thread that owns the shard.
class ShardRouter final : public CrossShardSink {
 public:
  ShardRouter(ShardMailboxes* mailboxes, const ShardMap* map, int src_shard)
      : mailboxes_(mailboxes), map_(map), src_shard_(src_shard) {}

  FASTCC_XSHARD_SINK Packet& reserve(sim::Time arrival, NodeId dst_node,
                                     int dst_port) override {
    const int dst_shard = map_->of(dst_node);
    assert(dst_shard != src_shard_ &&
           "cross-shard sink invoked for an intra-shard link");
    return mailboxes_->put(src_shard_, dst_shard, arrival, dst_node, dst_port)
        .pkt;
  }

 private:
  ShardMailboxes* mailboxes_;
  FASTCC_SHARD_SHARED_RO const ShardMap* map_;
  int src_shard_;
};

}  // namespace fastcc::net
