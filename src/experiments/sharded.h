// The experiment engine: one simulation, partitioned into logical shards.
//
// run_datacenter(), run_datacenter_sharded() and run_incast() all run this
// engine (experiments/engine.h).  The fat-tree entry points differ only in
// the partition: run_datacenter() is the single-shard case, with every node
// in shard 0, no boundary links, no transfers and one epoch.  The incast's
// star is always one shard.
// run_datacenter_sharded() partitions the fat-tree by pod, or by ToR+its
// hosts when DatacenterConfig::shard_granularity is kTor (spines and
// pod-internal aggs dealt round-robin either way).  Every shard gets a
// private Simulator, PacketPool, and Rng, and the shards advance in
// conservative barrier epochs (see sim/epoch.h) on `workers` OS threads.
// Packets crossing a shard boundary are serialized out of the source shard's
// pool into per-shard-pair mailboxes at the epoch barrier and
// re-materialized by the destination shard (see net/shard.h).
//
// Epochs are adaptive, not fixed-length: a path-closed per-ordered-pair
// lookahead matrix (net::ShardLookahead) plus each shard's earliest pending
// work sizes a per-shard horizon every barrier, shards with nothing inside
// their horizon are skipped without touching their simulator, and idle
// stretches are crossed in one horizon jump (DESIGN.md §9.5).
//
// Determinism: the shard partition and every horizon/active-set decision are
// functions of the topology and simulation state alone, so the result is
// byte-identical for every worker count — 1, 2, 8, and 16 workers produce
// the same flow records, drops, and event counts.  Different partitions
// (serial, pod grain, rack grain) are not flow-for-flow identical to each
// other: each shard draws from its own Rng stream, so RED marking and
// probabilistic feedback draws differ.  Each partition is deterministic in
// its own right.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/datacenter.h"

namespace fastcc::exp {

/// Observability for sharded runs: epoch/transfer counts for sanity checks
/// and the per-shard pool figures the leak audit asserts on.
struct ShardedRunStats {
  int shards = 1;
  int workers = 1;              ///< After clamping to [1, shards].
  /// Smallest / largest finite entry of the per-pair lookahead matrix
  /// (path-closed, off-diagonal).  Equal on homogeneous-latency
  /// topologies; a spread is the slack the adaptive horizons exploit.
  sim::Time lookahead_min = 0;
  sim::Time lookahead_max = 0;
  std::uint64_t epochs = 0;
  /// Shard-epochs skipped by the active-set protocol: the shard's next
  /// local event and inbound release horizons both sat beyond its epoch
  /// horizon, so it was never claimed (its simulator was not touched).
  std::uint64_t epochs_skipped = 0;
  /// Barrier steps whose horizon front advanced by more than
  /// `lookahead_min` in one jump — idle stretches fast-forwarded instead of
  /// being walked one minimum lookahead at a time.
  std::uint64_t horizon_jumps = 0;
  std::uint64_t cross_shard_transfers = 0;
  bool drained = false;  ///< All queues and mailboxes empty at the end.
  /// Calendar days extracted, and the entries they held, summed over
  /// shards (sim::CalendarQueue::days_extracted()).  Their ratio is the
  /// mean day size.
  std::uint64_t calendar_days = 0;
  std::uint64_t calendar_day_entries = 0;
  std::vector<std::uint32_t> pool_peak;         ///< Per-shard high-water mark.
  std::vector<std::uint32_t> pool_live_at_end;  ///< 0 for every drained shard.
};

/// Runs `config` partitioned at config.shard_granularity on `workers`
/// threads (0 = one per shard; values above the shard count are clamped).
/// The calling thread participates as a worker.  Termination, for this and
/// run_datacenter() alike: runs until every shard's event queue and every
/// mailbox is empty (full drain — this is what makes the pool leak audit
/// meaningful), or until the epoch horizon reaches config.max_sim_time,
/// whichever comes first.  Flow records are returned sorted by flow id, a
/// canonical order independent of completion order.  Throws
/// std::invalid_argument on an invalid config (see run_datacenter()).
DatacenterResult run_datacenter_sharded(const DatacenterConfig& config,
                                        int workers,
                                        ShardedRunStats* stats = nullptr);

}  // namespace fastcc::exp
