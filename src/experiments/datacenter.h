// Datacenter simulation driver (Figures 10-13).
//
// Runs Poisson CDF-driven traffic over the fat-tree and records a FlowRecord
// per completed flow; the slowdown tables in stats/fct.h turn those into the
// paper's FCT-slowdown-vs-size figures.  run_datacenter() is the
// single-shard case of the engine in experiments/sharded.h, which also
// runs the incast experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/protocols.h"
#include "stats/fct.h"
#include "topo/fat_tree.h"
#include "workload/poisson.h"

namespace fastcc::exp {

struct DatacenterConfig {
  Variant variant = Variant::kHpcc;
  topo::FatTreeParams topo = topo::scaled_fat_tree();
  std::vector<workload::TrafficComponent> components;  ///< Workload mix.
  double load = 0.5;
  sim::Time generate_duration = 2 * sim::kMillisecond;  ///< Arrival window.
  sim::Time max_sim_time = 400 * sim::kMillisecond;     ///< Drain cap.
  std::uint64_t seed = 1;

  /// Partition grain for run_datacenter_sharded (run_datacenter always
  /// runs a single shard): kPod gives one shard per pod, kTor one per rack,
  /// so the parallel width scales with rack count.  Like the worker count,
  /// this is a wall-clock knob with a determinism contract per grain — but
  /// *changing* the grain changes shard Rng stream assignment, so results
  /// are comparable across grains only statistically (same flow
  /// population, equivalent aggregate FCTs), exactly like sharded vs
  /// serial.
  topo::ShardGranularity shard_granularity = topo::ShardGranularity::kPod;

  /// When non-empty, replay these flows (src/dst as host indices — e.g.
  /// loaded via workload::load_flow_trace) instead of generating traffic;
  /// `components`/`load`/`generate_duration` are then ignored.
  std::vector<net::FlowSpec> preset_flows;
};

struct DatacenterResult {
  std::vector<stats::FlowRecord> flows;
  std::uint64_t drops = 0;
  std::uint64_t events_executed = 0;
  /// Finish time of the last flow (max of start_time + fct), or
  /// max_sim_time when any flow is unfinished.
  sim::Time end_time = 0;
  std::size_t unfinished = 0;  ///< Flows still running at max_sim_time.
};

/// Runs `config` as a single shard on the calling thread; terminates by
/// full drain and returns id-sorted records (see run_datacenter_sharded).
/// Throws std::invalid_argument on an empty workload, a load outside
/// (0, 1] when generating, a non-positive max_sim_time, or a preset flow
/// whose host index is out of range, whose src equals its dst, or whose id
/// repeats.
DatacenterResult run_datacenter(const DatacenterConfig& config);

}  // namespace fastcc::exp
