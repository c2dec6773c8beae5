// The one experiment engine (private to experiments/).
//
// run_datacenter(), run_datacenter_sharded() and run_incast() are
// translation layers over run_engine(): each turns its config into an
// EngineInput and reads the engine's DatacenterResult back.  run_engine()
// is the only code that builds and runs an experiment's simulator, so
// validation, the RED/PFC set-up, flow starts and termination are written
// once for every experiment.
#pragma once

#include <functional>

#include "cc/engine.h"
#include "experiments/sharded.h"
#include "topo/star.h"

namespace fastcc::exp {

/// What DatacenterConfig does not carry: the topology choice and the
/// settings only the incast experiments use.
struct EngineInput {
  /// Variant, seed, workload and simulated-time cap.  Preset flows name
  /// hosts by index.  `topo` and `shard_granularity` are ignored on a star.
  const DatacenterConfig* config = nullptr;
  /// Non-null: build this single-switch star instead of config->topo.  A
  /// star is always one shard and gets CcFactory's small-topology
  /// adjustments.
  const topo::StarParams* star = nullptr;
  /// Fat-tree only: partition at config->shard_granularity and run on
  /// `workers` threads (0 = one per shard); otherwise one shard.
  bool partition = false;
  int workers = 1;

  std::uint64_t buffer_limit_bytes = 0;  ///< Every switch egress; 0 = none.
  net::PfcParams pfc;  ///< Applied after the variant's RED/PFC defaults.
  /// Builds every controller instead of the variant's CcFactory.
  std::function<cc::CcEngine(const net::PathInfo&)> custom_cc;

  /// Called on every completed flow, after the engine records it, on the
  /// thread running the flow's shard; set it on one-shard runs only.
  std::function<void(const net::FlowTx&)> on_complete;
  /// Star only: called once after the start lanes are set and before the
  /// run.  A start runs before every queued event at its timestamp
  /// (sim::Simulator::set_start_lane), so samplers armed here follow the
  /// starts in same-timestamp order by construction.  Whatever it arms must
  /// outlive run_engine().
  std::function<void(sim::Simulator&, const topo::Star&)> attach_samplers;
};

/// Validates, builds, runs to full drain or config->max_sim_time, and
/// returns id-sorted flow records (see run_datacenter_sharded()).
DatacenterResult run_engine(const EngineInput& input,
                            ShardedRunStats* stats_out = nullptr);

}  // namespace fastcc::exp
