#include "experiments/engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/network.h"
#include "net/shard.h"
#include "sim/epoch.h"
#include "util/contracts.h"
#include "sim/simulator.h"

namespace fastcc::exp {

namespace {

/// Everything one shard accumulates during the run.  Written only by the
/// worker currently running the shard; read by the main thread after the
/// epoch loop finishes.
struct ShardState {
  stats::FctRecorder recorder;
  std::vector<net::DrainKey> keys;  ///< Reused drain scratch.
};

/// Epoch-start injection for one shard: re-materializes every packet
/// published for it at the last barrier, straight from its mailbox record,
/// and schedules the delivery at the recorded arrival instant.  Injecting
/// in the canonical (arrival, src shard, seq) key order makes any
/// same-timestamp tie-break in the event queue independent of the thread
/// schedule.
FASTCC_SHARD_LOCAL void inject_inbox(sim::Simulator& sim, net::PacketPool& pool,
                  net::Network& network, net::ShardMailboxes& mailboxes,
                  int s, std::vector<net::DrainKey>& keys) {
  mailboxes.order_ready(s, keys);
  for (const net::DrainKey& key : keys) {
    const net::CrossShardPacket& rec = *key.rec;
    net::check_arrival_not_past(s, rec.arrival, sim.now());
    net::Node* node = network.node(rec.dst_node);
    const net::PacketRef ref = pool.import_packet(rec.pkt);
    const int in_port = rec.dst_port;
    auto arrive = [node, ref, in_port] { node->deliver(ref, in_port); };
    static_assert(
        sizeof(arrive) <= 24 && sim::UniqueFunction::fits_inline<decltype(arrive)>,
        "re-materialized delivery must stay a handle-sized inline closure");
    sim.at(rec.arrival, std::move(arrive));
  }
  mailboxes.clear_ready(s);
}

/// Mutable state the epoch loop threads across the barrier.  Every field is
/// written only inside the completion step (plan_epoch below) and read by
/// workers at the next epoch's start; the barrier's release ordering makes
/// each update visible.
struct EpochLoopState {
  explicit EpochLoopState(int shards)
      : horizon(static_cast<std::size_t>(shards), 0),
        work(static_cast<std::size_t>(shards), 0),
        earliest(static_cast<std::size_t>(shards), 0) {
    active.reserve(static_cast<std::size_t>(shards));
  }

  FASTCC_EPOCH_PUBLISH std::vector<sim::Time> horizon;  ///< Per shard.
  FASTCC_EPOCH_PUBLISH std::vector<int> active;  ///< Shards run this epoch.
  FASTCC_EPOCH_PUBLISH std::vector<sim::Time> work;      ///< Scratch: t[s].
  FASTCC_EPOCH_PUBLISH std::vector<sim::Time> earliest;  ///< Scratch: e[s].
  FASTCC_EPOCH_PUBLISH sim::Time front = 0;  ///< Min active horizon so far.
  FASTCC_EPOCH_PUBLISH std::uint64_t epochs = 0;
  FASTCC_EPOCH_PUBLISH std::uint64_t epochs_skipped = 0;
  FASTCC_EPOCH_PUBLISH std::uint64_t horizon_jumps = 0;
  FASTCC_EPOCH_PUBLISH bool drained = false;
};

/// Worker phase: advances shard `s` through the current epoch — inject the
/// transfers published for it since it last ran, then run its private
/// simulator to its horizon.  Touches only shard s's state plus the
/// mailboxes' reader-owned column.  Skipped shards never reach here: their
/// clock lags until their next active epoch, which is harmless because a
/// skipped shard by definition had nothing to execute in between.
FASTCC_SHARD_LOCAL void advance_shard(
    std::vector<std::unique_ptr<sim::Simulator>>& sims,
    std::vector<std::unique_ptr<net::PacketPool>>& pools, net::Network& network,
    net::ShardMailboxes& mailboxes, std::vector<ShardState>& shard_state,
    const EpochLoopState& loop, int s) {
  const auto si = static_cast<std::size_t>(s);
  inject_inbox(*sims[si], *pools[si], network, mailboxes, s,
               shard_state[si].keys);
  sims[si]->run(loop.horizon[si] - 1);
}

/// Barrier completion step: runs single-threaded while every worker is
/// parked.  Publishes the mailboxes, decides termination (full drain or the
/// simulated-time cap), and plans the next epoch — per-shard horizons from
/// the path-closed lookahead matrix plus the active set.  The only place
/// EpochLoopState is written.
///
/// The plan (DESIGN.md §9.5):
///   t[s]  earliest instant shard s could execute anything it already
///         knows about: its own next event or flow start, or a published
///         inbound transfer's arrival (the mailbox release horizon).
///   e[s]  earliest conceivable execution instant at s, folding in chains
///         started elsewhere: min over all x of t[x] + L(x, s).  Because L
///         is path-closed (triangle inequality), this single relaxation
///         pass is the fixpoint.
///   H[d]  the epoch horizon for d: min over s != d of e[s] + L(s, d) —
///         no influence the planner cannot already see can reach d before
///         H[d], so d may run to H[d] - 1 without synchronizing.
/// A shard with t[d] >= H[d] has nothing to do this epoch and is skipped
/// outright (active-set protocol); when every horizon clears an idle
/// stretch the front advances by many minimum lookaheads in one barrier step
/// (horizon jump) — the fixed-increment loop this replaces walked such
/// stretches one minimum-lookahead step at a time.
FASTCC_EPOCH_PUBLISH bool plan_epoch(
    std::vector<std::unique_ptr<sim::Simulator>>& sims,
    net::ShardMailboxes& mailboxes, const net::ShardLookahead& la,
    sim::Time max_sim_time, EpochLoopState& loop) {
  const int shards = la.shards();
  mailboxes.publish();

  sim::Time min_work = sim::kMaxTime;
  for (int s = 0; s < shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    sim::Time t = sims[si]->empty() ? sim::kMaxTime : sims[si]->next_time();
    t = std::min(t, mailboxes.earliest_ready(s));
    loop.work[si] = t;
    min_work = std::min(min_work, t);
  }
  if (min_work == sim::kMaxTime) {
    // Nothing pending anywhere — queues and mailboxes (pending side was
    // just published) are all empty, so no future epoch can create work.
    loop.drained = true;
    return false;
  }
  if (min_work >= max_sim_time) return false;  // Drain cap.

  for (int d = 0; d < shards; ++d) {
    sim::Time e = loop.work[static_cast<std::size_t>(d)];
    for (int s = 0; s < shards; ++s) {
      const sim::Time t = loop.work[static_cast<std::size_t>(s)];
      const sim::Time hop = la.between(s, d);
      if (t == sim::kMaxTime || hop == net::ShardLookahead::kUnreachable) {
        continue;
      }
      e = std::min(e, t + hop);
    }
    loop.earliest[static_cast<std::size_t>(d)] = e;
  }

  loop.active.clear();
  sim::Time front = sim::kMaxTime;
  for (int d = 0; d < shards; ++d) {
    sim::Time h = sim::kMaxTime;
    for (int s = 0; s < shards; ++s) {
      if (s == d) continue;
      const sim::Time e = loop.earliest[static_cast<std::size_t>(s)];
      const sim::Time hop = la.between(s, d);
      if (e == sim::kMaxTime || hop == net::ShardLookahead::kUnreachable) {
        continue;
      }
      h = std::min(h, e + hop);
    }
    if (h == sim::kMaxTime) {
      // No chain of links can ever deliver anything to d (single-shard
      // runs, or a region the remaining traffic cannot reach), so only the
      // simulated-time cap bounds it.
      h = max_sim_time;
    }
    loop.horizon[static_cast<std::size_t>(d)] = h;
    if (loop.work[static_cast<std::size_t>(d)] < h) {
      loop.active.push_back(d);
      front = std::min(front, h);
    } else {
      ++loop.epochs_skipped;
    }
  }
  assert(!loop.active.empty() &&
         "a shard owning min_work is always inside its own horizon");

  // A barrier step that moved the front further than the minimum lookahead
  // covered an idle stretch in one jump.
  if (loop.epochs > 0 && front > loop.front &&
      front - loop.front > la.min_window()) {
    ++loop.horizon_jumps;
  }
  loop.front = front;
  ++loop.epochs;
  return true;
}

/// Always-on config checks (the optimized build compiles asserts out).
/// Preset host indices are checked before they index the host list, and
/// preset ids before they key the flow -> path map.
void validate(const DatacenterConfig& config, int host_count) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("datacenter config: " + what);
  };
  if (config.components.empty() && config.preset_flows.empty()) {
    fail("empty workload (no traffic components and no preset flows)");
  }
  const bool load_ok = config.load > 0.0 && config.load <= 1.0;  // NaN fails
  if (config.preset_flows.empty() && !load_ok) {
    fail("load " + std::to_string(config.load) + " outside (0, 1]");
  }
  if (config.max_sim_time <= 0) fail("max_sim_time must be positive");
  const auto hosts = static_cast<net::NodeId>(host_count);
  std::set<net::FlowId> ids;
  for (const net::FlowSpec& spec : config.preset_flows) {
    const std::string flow = "preset flow " + std::to_string(spec.id);
    if (spec.src >= hosts || spec.dst >= hosts) {
      fail(flow + ": host index outside [0, " + std::to_string(hosts) + ")");
    }
    if (spec.src == spec.dst) fail(flow + ": src == dst");
    if (!ids.insert(spec.id).second) fail(flow + ": duplicate flow id");
  }
}

}  // namespace

DatacenterResult run_engine(const EngineInput& input,
                            ShardedRunStats* stats_out) {
  const DatacenterConfig& config = *input.config;
  validate(config, input.star != nullptr ? input.star->host_count
                                         : config.topo.host_count());

  // Private event queue and packet arena per shard.  unique_ptr because
  // neither type is movable; addresses must also stay stable — ports and
  // nodes hold raw pointers into these after rebinding.  The whole topology
  // is built against shard 0's simulator and re-homed onto its owning
  // shard below.  Building is serial either way; only the run is parallel.
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  sims.push_back(std::make_unique<sim::Simulator>());
  net::Network network(*sims[0], config.seed);
  topo::Star star;
  std::vector<net::Host*> hosts;  // by host index
  net::ShardMap smap;
  if (input.star != nullptr) {
    star = build_star(network, *input.star);
    hosts = star.hosts;
  } else {
    topo::FatTree tree = build_fat_tree(network, config.topo);
    hosts = tree.hosts;
    if (input.partition) {
      smap = topo::shard_map_for(tree, config.topo, network.node_count(),
                                 config.shard_granularity);
    }
  }
  if (smap.shard.empty()) smap.shard.assign(network.node_count(), 0);
  const int shards = smap.count;
  const int workers = input.workers > 0 ? input.workers : shards;

  std::vector<std::unique_ptr<net::PacketPool>> pools;
  pools.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    if (s > 0) sims.push_back(std::make_unique<sim::Simulator>());
    pools.push_back(std::make_unique<net::PacketPool>());
  }

  if (variant_needs_red(config.variant)) {
    network.set_red_all(red_params_for(config.variant));
    // ECN-driven deployments rely on PFC for losslessness while the
    // protocol converges (RDMA practice for DCQCN; harmless for DCTCP).
    net::PfcParams pfc;
    pfc.pause_bytes = 200'000;
    pfc.resume_bytes = 100'000;
    network.set_pfc_all(pfc);
  }
  if (input.buffer_limit_bytes > 0) {
    network.set_buffer_limit_all(input.buffer_limit_bytes);
  }
  if (input.pfc.enabled()) network.set_pfc_all(input.pfc);

  CcFactory factory(network, config.variant,
                    /*small_topology=*/input.star != nullptr);
  auto make_cc = [&](const net::PathInfo& path, sim::Rng* rng) {
    return input.custom_cc ? input.custom_cc(path) : factory.make(path, rng);
  };

  // Traffic generation forks the network stream first, so a given seed
  // produces the same flow set under every partition.
  std::vector<net::FlowSpec> specs;
  if (!config.preset_flows.empty()) {
    specs = config.preset_flows;
  } else {
    workload::PoissonTrafficParams traffic;
    traffic.components = config.components;
    traffic.load = config.load;
    traffic.host_bandwidth = config.topo.host_bandwidth;
    traffic.host_count = static_cast<int>(hosts.size());
    traffic.duration = config.generate_duration;
    sim::Rng traffic_rng = network.rng().fork();
    specs = workload::generate_poisson_traffic(traffic, traffic_rng);
  }

  // Per-shard random streams, forked in shard order (deterministic).  RED
  // marking at ports and probabilistic CC feedback draw from the owning
  // shard's stream, so no two workers ever touch one generator.
  std::vector<sim::Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shard_rngs.push_back(network.rng().fork());

  // Re-home every node (simulator, pool, timing wheel, port transmitters,
  // port rng) onto its shard.
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    const int s = smap.of(id);
    net::Node* n = network.node(id);
    n->rebind_shard(*sims[s], pools[s].get());
    for (int i = 0; i < n->port_count(); ++i) {
      n->port(i).set_rng(&shard_rngs[static_cast<std::size_t>(s)]);
    }
  }

  // Mark every egress port whose peer lives on another shard as a boundary:
  // its transmissions go through the shard's router into the mailboxes.
  // Each boundary link feeds the per-ordered-pair lookahead matrix: a
  // packet deposited by shard s at local time t cannot reach shard d
  // before t + L(s, d), where L starts as the minimum direct boundary-link
  // propagation delay and is then closed over paths (seal), so the bound
  // holds for multi-hop influence chains too.
  net::ShardMailboxes mailboxes(shards);
  std::vector<std::unique_ptr<net::ShardRouter>> routers;
  routers.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    routers.push_back(
        std::make_unique<net::ShardRouter>(&mailboxes, &smap, s));
  }
  net::ShardLookahead lookahead(shards);
  std::size_t boundary_ports = 0;
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    net::Node* n = network.node(id);
    const int s = smap.of(id);
    for (int i = 0; i < n->port_count(); ++i) {
      net::Port& port = n->port(i);
      if (!port.connected()) continue;
      const int d = smap.of(port.peer()->id());
      if (d == s) continue;
      port.set_cross_shard_sink(routers[static_cast<std::size_t>(s)].get());
      lookahead.observe_link(s, d, port.propagation_delay());
      ++boundary_ports;
    }
  }
  lookahead.seal();
  assert((boundary_ports > 0 || shards == 1) &&
         "sharding found no boundary link in a multi-shard tree");
  assert((shards == 1 || lookahead.min_window() > 0) &&
         "conservative sync needs nonzero boundary latency");

  // Shortest-path BFS all happens here on the calling thread; during the
  // epoch loop the cache and flow_paths map are read-only (concurrent reads
  // from completion callbacks are safe).
  std::map<std::pair<net::NodeId, net::NodeId>, net::PathInfo> path_cache;
  auto path_of = [&](net::NodeId src,
                     net::NodeId dst) -> const net::PathInfo& {
    auto key = std::make_pair(src, dst);
    auto it = path_cache.find(key);
    if (it == path_cache.end()) {
      it = path_cache.emplace(key, network.path(src, dst)).first;
    }
    return it->second;
  };

  const std::size_t total = specs.size();
  std::map<net::FlowId, const net::PathInfo*> flow_paths;
  std::vector<ShardState> shard_state(static_cast<std::size_t>(shards));

  // Completion callbacks write only the owning shard's state — no shared
  // counter; termination is the drain check at the barrier.  Only
  // one-shard runs set input.on_complete.
  for (net::Host* h : hosts) {
    ShardState* st = &shard_state[static_cast<std::size_t>(smap.of(h->id()))];
    h->set_completion_callback([st, &flow_paths, &input](const net::FlowTx& f) {
      st->recorder.record(f, *flow_paths.at(f.spec.id));
      if (input.on_complete) input.on_complete(f);
    });
  }

  // Flow starts go through each shard's start lane, never its event queue
  // (see sim::Simulator::set_start_lane): spec i starts through lane entry
  // (start_time, i) of its source's shard.
  struct FlowStart {
    net::Host* src;
    const net::PathInfo* path;
  };
  std::vector<FlowStart> starts;
  starts.reserve(total);
  std::vector<std::vector<sim::Simulator::Start>> lanes(
      static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < total; ++i) {
    net::FlowSpec& spec = specs[i];
    // Remap generator host indices to topology node ids.
    net::Host* src = hosts[spec.src];
    net::Host* dst = hosts[spec.dst];
    spec.src = src->id();
    spec.dst = dst->id();
    const net::PathInfo& path = path_of(spec.src, spec.dst);
    flow_paths.emplace(spec.id, &path);
    starts.push_back({src, &path});
    lanes[static_cast<std::size_t>(smap.of(spec.src))].push_back(
        {spec.start_time, i});
  }
  for (int s = 0; s < shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    sim::Rng* rng = &shard_rngs[si];
    // specs, starts and make_cc outlive every start: the epoch loop below
    // runs on this frame.
    sims[si]->set_start_lane(
        std::move(lanes[si]), [&specs, &starts, &make_cc, rng](std::size_t i) {
          const FlowStart& start = starts[i];
          net::FlowTx flow;
          flow.spec = specs[i];
          flow.line_rate = start.src->port(0).bandwidth();
          flow.base_rtt = start.path->base_rtt;
          flow.path_hops = start.path->hops;
          flow.cc = make_cc(*start.path, rng);
          start.src->start_flow(std::move(flow));
        });
  }
  if (input.star != nullptr && input.attach_samplers) {
    input.attach_samplers(*sims[0], star);
  }

  // ---- The epoch loop ----------------------------------------------------
  // Each epoch, shard s runs its queue through [its clock, horizon[s]).
  // Simulator::run(until) is inclusive of `until`, so an active shard runs
  // to horizon[s] - 1; a bounded run leaves the clock at the bound even
  // when the queue drained early.  Skipped shards are not touched at all —
  // their clock catches up the next time they are active.  The worker and
  // completion-step bodies live in the named phase-annotated functions
  // above; the lambdas only bind this run's state to them.  plan_epoch is
  // called once up front to seed the first active set and horizons, then
  // once per barrier.
  EpochLoopState loop(shards);

  auto shard_fn = [&](int s) {
    advance_shard(sims, pools, network, mailboxes, shard_state, loop, s);
  };

  auto barrier_fn = [&]() -> bool {
    return plan_epoch(sims, mailboxes, lookahead, config.max_sim_time, loop);
  };

  if (plan_epoch(sims, mailboxes, lookahead, config.max_sim_time, loop)) {
    sim::EpochCoordinator::run_active(shards, workers, loop.active, shard_fn,
                                      barrier_fn);
  }
  // A full drain decided from the release horizons alone must leave no
  // record in any mailbox: one left behind is a transfer never delivered.
  assert(!loop.drained || mailboxes.all_empty());

  // ---- Merge -------------------------------------------------------------
  DatacenterResult result;
  for (const ShardState& st : shard_state) {
    result.flows.insert(result.flows.end(), st.recorder.records().begin(),
                        st.recorder.records().end());
  }
  // Canonical order: flow id, independent of completion order.
  std::sort(result.flows.begin(), result.flows.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
              return a.id < b.id;
            });
  result.drops = network.total_drops();
  for (const auto& sim : sims) result.events_executed += sim->events_executed();
  result.unfinished = total - result.flows.size();
  // The experiment ends when its last flow does.  Shard clocks are no
  // measure of that: they park at epoch horizons, skipped shards lag, and
  // the drain tail runs past the last completion.
  if (result.unfinished > 0) {
    result.end_time = config.max_sim_time;
  } else {
    for (const stats::FlowRecord& f : result.flows) {
      result.end_time = std::max(result.end_time, f.start_time + f.fct);
    }
  }

  if (stats_out != nullptr) {
    stats_out->shards = shards;
    stats_out->workers = std::clamp(workers, 1, shards);
    stats_out->lookahead_min = lookahead.min_window();
    stats_out->lookahead_max = lookahead.max_window();
    stats_out->epochs = loop.epochs;
    stats_out->epochs_skipped = loop.epochs_skipped;
    stats_out->horizon_jumps = loop.horizon_jumps;
    stats_out->cross_shard_transfers = mailboxes.total_transfers();
    stats_out->drained = loop.drained;
    stats_out->calendar_days = 0;
    stats_out->calendar_day_entries = 0;
    for (const auto& sim : sims) {
      stats_out->calendar_days += sim->queue().days_extracted();
      stats_out->calendar_day_entries += sim->queue().day_entries();
    }
    stats_out->pool_peak.clear();
    stats_out->pool_live_at_end.clear();
    for (const auto& pool : pools) {
      stats_out->pool_peak.push_back(pool->peak_count());
      stats_out->pool_live_at_end.push_back(pool->live_count());
    }
  }

  if (loop.drained) {
    // A drained run must leave zero live packets per shard: every packet
    // was either consumed locally or export_release'd across a boundary
    // and released there.  Arm the destructor audit so a leak fails loudly.
    for (const auto& pool : pools) pool->enable_teardown_leak_audit();
  }
  return result;
}

DatacenterResult run_datacenter(const DatacenterConfig& config) {
  EngineInput input;
  input.config = &config;
  return run_engine(input);
}

DatacenterResult run_datacenter_sharded(const DatacenterConfig& config,
                                        int workers,
                                        ShardedRunStats* stats_out) {
  EngineInput input;
  input.config = &config;
  input.partition = true;
  input.workers = workers;
  return run_engine(input, stats_out);
}

}  // namespace fastcc::exp
