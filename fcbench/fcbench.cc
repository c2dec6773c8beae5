// fcbench: end-to-end benchmark of the paper's fat-tree (Fig. 10) and
// incast (Figs. 1-9) experiments, driven only through fastcc's public API.
//
//   fcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md says why each was chosen):
//   fattree_hadoop_serial   Hadoop @ 50 %, 1 ms of Poisson arrivals on the
//                           64-host fat-tree, serial run_datacenter,
//                           HPCC then HPCC VAI SF.
//   fattree_hadoop_sharded  the same flows through run_datacenter_sharded
//                           with min(4, nproc) workers.
//   incast_16to1            the paper's 16-to-1 incast for HPCC, HPCC VAI SF,
//                           Swift and Swift VAI SF, repeated back to back.
//
// One pass runs every variant of the workload once; passes repeat until
// --seconds have elapsed and, untraced, at least 20 experiments ran, so the
// ten-beyond tail sits at or above the median.  Set-up (input generation
// and a topology build that validates the inputs) is repeated up to 21
// times, spread over the run, and its median reported.
// With --trace 1 untraced and traced passes alternate: the traced ones
// record spans around each call into the library, and the ratio of their
// medians is the tracing overhead.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cc/cc.h"
#include "cc/engine.h"
#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "experiments/protocols.h"
#include "experiments/sharded.h"
#include "ledger.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/fct.h"
#include "stats/percentile.h"
#include "topo/fat_tree.h"
#include "topo/star.h"
#include "workload/distributions.h"
#include "workload/incast.h"
#include "workload/poisson.h"

namespace {

namespace fx = fastcc::exp;
namespace net = fastcc::net;
namespace sim = fastcc::sim;
namespace topo = fastcc::topo;
namespace wl = fastcc::workload;
using fcbench::FailureCount;
using fcbench::SpanLog;

constexpr std::int64_t kSetupReps = 21;
constexpr std::size_t kMinExperiments = 20;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Span recording for traced passes; every entry point takes a nullable
/// Tracer* so untraced passes pay one branch per call.
struct Tracer {
  SpanLog log;
  int parent = -1;  ///< Span new spans nest under (the current pass).
};

class Scope {
 public:
  Scope(Tracer* t, const char* name)
      : t_(t), id_(t ? t->log.begin(name, t->parent, wall_ns()) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->log.end(id_, wall_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// Wall and CPU time of one simulation call.
struct CallTime {
  std::int64_t wall = 0;
  std::int64_t cpu = 0;
};

template <typename F>
CallTime timed(F&& f) {
  const std::int64_t w0 = wall_ns();
  const std::int64_t c0 = cpu_ns();
  f();
  return {wall_ns() - w0, cpu_ns() - c0};
}

const char* slug(fx::Variant v) {
  switch (v) {
    case fx::Variant::kHpcc: return "hpcc";
    case fx::Variant::kHpccVaiSf: return "hpcc_vai_sf";
    case fx::Variant::kSwift: return "swift";
    case fx::Variant::kSwiftVaiSf: return "swift_vai_sf";
    default: return "other";
  }
}

/// Named metric values in output order.
using Metrics = std::vector<std::pair<std::string, double>>;
/// Span totals by name, as SpanLog::totals() gives them.
using Totals = std::map<std::string, fcbench::LayerTotal>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed` and validates them against a
  /// topology build.  Returns false (with a message) on invalid inputs.
  virtual bool setup(Tracer* t) = 0;
  virtual std::size_t experiments() const = 0;
  /// Runs experiment `i`, checks its outputs and returns the time of the
  /// simulation call alone.
  virtual CallTime run(std::size_t i, Tracer* t) = 0;
  /// After the timed passes: derives the paper's shape and, when traced,
  /// runs the extra experiments the per-layer ledger needs.
  virtual void extras(Tracer* t) = 0;
  /// Prints the paper's shape and per-experiment digests.
  virtual void report() const = 0;
  /// Per-layer metrics this workload owns; main() fills in zero for the
  /// rest.  `run_s`/`cpu_s` are the end-to-end figures.
  virtual Metrics layers(const Totals& spans, double run_s,
                         double cpu_s) const = 0;

  FailureCount failures;

 protected:
  /// Every repeat of an experiment on the same inputs must reproduce the
  /// first run's digest; a mismatch fails all of its attempts.
  void check_digest(std::size_t i, std::uint64_t d, std::uint64_t attempts) {
    if (digests_.size() <= i) digests_.resize(i + 1, 0);
    if (digests_[i] == 0) {
      digests_[i] = d;
    } else if (digests_[i] != d) {
      std::fprintf(stderr, "experiment %zu: digest %016" PRIx64
                   " differs from first run %016" PRIx64 "\n",
                   i, d, digests_[i]);
      failures.failed += attempts;
    }
  }
  std::vector<std::uint64_t> digests_;
};

/// Mean wall milliseconds per call of the spans named `name`.
double ms_of(const Totals& totals, const char* name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.calls) / 1e6;
}

// ---------------------------------------------------------------------------
// Fat-tree: Hadoop @ 50 % on sharded_scaled_fat_tree, serial or sharded.

class FatTreeWorkload final : public Workload {
 public:
  FatTreeWorkload(std::uint64_t seed, bool sharded)
      : seed_(seed), sharded_(sharded) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    workers_ = static_cast<int>(std::min(4u, hw));
  }

  bool setup(Tracer* t) override {
    {
      Scope s(t, "workload.generate_poisson_traffic");
      // The offered volume is fixed at what 1 ms of arrivals offers on
      // average (400 MB), so the seed varies the traffic pattern but not
      // the amount of work: a plain 1 ms window offers 340-440 MB across
      // seeds.  Arrivals are drawn over 2 ms and cut once the volume is met.
      constexpr sim::Time kWindow = 1 * sim::kMillisecond;
      wl::PoissonTrafficParams traffic;
      traffic.components = {{&wl::hadoop_cdf(), 1.0}};
      traffic.load = 0.5;
      traffic.host_bandwidth = params_.host_bandwidth;
      traffic.host_count = params_.host_count();
      traffic.duration = 2 * kWindow;
      sim::Rng rng(seed_);
      flows_ = wl::generate_poisson_traffic(traffic, rng);
      const double target = traffic.load * traffic.host_bandwidth *
                            traffic.host_count * static_cast<double>(kWindow);
      double offered = 0.0;
      std::size_t n = 0;
      while (n < flows_.size() && offered < target) {
        offered += static_cast<double>(flows_[n++].size_bytes);
      }
      flows_.resize(n);
    }
    {
      Scope s(t, "topo.build_fat_tree");
      sim::Simulator simulator;
      net::Network network(simulator, seed_);
      const topo::FatTree tree = topo::build_fat_tree(network, params_);
      const int hosts = static_cast<int>(tree.hosts.size());
      for (const net::FlowSpec& f : flows_) {
        if (f.src == f.dst || static_cast<int>(f.src) >= hosts ||
            static_cast<int>(f.dst) >= hosts || f.size_bytes == 0) {
          std::fprintf(stderr, "flow %u does not fit the topology\n", f.id);
          return false;
        }
      }
      Scope m(t, "topo.shard_map_for");
      const net::ShardMap map =
          topo::shard_map_for(tree, params_, network.node_count(),
                              fx::DatacenterConfig{}.shard_granularity);
      shards_ = map.count;
      boundary_links_ = 0;
      for (std::size_t id = 0; id < network.node_count(); ++id) {
        const net::Node* node = network.node(static_cast<net::NodeId>(id));
        for (int p = 0; p < node->port_count(); ++p) {
          const net::Node* peer = node->port(p).peer();
          if (id < peer->id() && map.of(node->id()) != map.of(peer->id())) {
            ++boundary_links_;
          }
        }
      }
    }
    configs_.clear();
    for (const fx::Variant v : {fx::Variant::kHpcc, fx::Variant::kHpccVaiSf}) {
      fx::DatacenterConfig c;
      c.variant = v;
      c.topo = params_;
      c.seed = seed_;
      c.preset_flows = flows_;
      configs_.push_back(std::move(c));
    }
    last_.resize(configs_.size());
    last_stats_.resize(configs_.size());
    return true;
  }

  std::size_t experiments() const override { return configs_.size(); }

  CallTime run(std::size_t i, Tracer* t) override {
    const fx::DatacenterConfig& c = configs_[i];
    fx::DatacenterResult r;
    fx::ShardedRunStats stats;
    CallTime ct;
    {
      Scope s(t, sharded_ ? "exp.run_datacenter_sharded" : "exp.run_datacenter");
      ct = timed([&] {
        r = sharded_ ? fx::run_datacenter_sharded(c, workers_, &stats)
                     : fx::run_datacenter(c);
      });
    }
    Scope s(t, "bench.check");
    bool run_ok = true;
    if (sharded_) {
      run_ok = stats.drained &&
               std::all_of(stats.pool_live_at_end.begin(),
                           stats.pool_live_at_end.end(),
                           [](std::uint32_t live) { return live == 0; });
    }
    const FailureCount fc = fcbench::check_datacenter(flows_, r, run_ok);
    failures += fc;
    check_digest(i, fcbench::digest_of(r), fc.attempted);
    last_[i] = std::move(r);
    last_stats_[i] = std::move(stats);
    return ct;
  }

  void extras(Tracer* t) override {
    {
      // The paper's Fig. 10 tables (20 size groups, p99.9 and p50) and
      // its headline number, the long-flow p99.9.
      Scope s(t, "stats.slowdown_by_size");
      tails_.clear();
      for (const fx::DatacenterResult& r : last_) {
        LongTail lt;
        lt.top_group_p999 =
            fastcc::stats::slowdown_by_size(r.flows, 20, 99.9).back().slowdown;
        lt.top_group_p50 =
            fastcc::stats::slowdown_by_size(r.flows, 20, 50.0).back().slowdown;
        fastcc::stats::PercentileEstimator est;
        for (const auto& f : r.flows) {
          if (f.size_bytes > 1'000'000) est.add(f.slowdown());
        }
        if (!est.empty()) lt.p999 = est.p999();
        lt.count = est.count();
        tails_.push_back(lt);
      }
    }
    if (!sharded_ || t == nullptr) return;
    // ROADMAP 1(c): the sharded runner with one worker against the serial
    // engine, and the byte-identical contract between worker counts.
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      fx::DatacenterResult serial;
      fx::DatacenterResult one;
      serial_ns_ += timed([&] {
        Scope s(t, "exp.run_datacenter");
        serial = fx::run_datacenter(configs_[i]);
      }).wall;
      one_worker_ns_ += timed([&] {
        Scope s(t, "exp.run_datacenter_sharded.1w");
        one = fx::run_datacenter_sharded(configs_[i], 1);
      }).wall;
      failures += fcbench::check_datacenter(flows_, serial);
      const FailureCount fc = fcbench::check_datacenter(flows_, one);
      failures += fc;
      if (fcbench::digest_of(one) != digests_[i]) {
        std::fprintf(stderr, "%s: 1-worker digest %016" PRIx64
                     " != %d-worker digest %016" PRIx64 "\n",
                     fx::variant_name(configs_[i].variant),
                     fcbench::digest_of(one), workers_, digests_[i]);
        failures.failed += fc.attempted;
      }
    }
  }

  void report() const override {
    std::printf("inputs: %zu flows, %.3f MB offered, seed %" PRIu64
                ", %s, %d shards, %d boundary links\n",
                flows_.size(), offered_mb(), seed_,
                sharded_ ? "sharded" : "serial", shards_, boundary_links_);
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const fx::DatacenterResult& r = last_[i];
      std::printf("experiment %-12s digest %016" PRIx64
                  " flows=%zu unfinished=%zu drops=%" PRIu64
                  " events=%" PRIu64 " sim_end_us=%.1f\n",
                  fx::variant_name(configs_[i].variant),
                  i < digests_.size() ? digests_[i] : 0, r.flows.size(),
                  r.unfinished, r.drops, r.events_executed,
                  static_cast<double>(r.end_time) / 1e3);
    }
    for (std::size_t i = 0; i < tails_.size(); ++i) {
      const LongTail& lt = tails_[i];
      std::printf("shape: %-12s long-flow (>1 MB) p99.9 slowdown %.3f over %zu "
                  "flows (%s); largest 5 %% of flows p99.9 %.3f, p50 %.3f\n",
                  fx::variant_name(configs_[i].variant), lt.p999, lt.count,
                  lt.count >= 10'010 ? "meets the ten-beyond rule"
                                     : "below the ten-beyond rule",
                  lt.top_group_p999, lt.top_group_p50);
    }
  }

  Metrics layers(const Totals& spans, double run_s, double cpu_s) const override {
    std::uint64_t events = 0, drops = 0, epochs = 0, shard_epochs = 0,
                  skipped = 0, jumps = 0, transfers = 0, pool_peak = 0;
    double sim_us = 0.0;
    for (std::size_t i = 0; i < last_.size(); ++i) {
      const fx::DatacenterResult& r = last_[i];
      events += r.events_executed;
      drops += r.drops;
      sim_us += static_cast<double>(r.end_time) / 1e3;
      if (!sharded_) continue;
      const fx::ShardedRunStats& s = last_stats_[i];
      epochs += s.epochs;
      shard_epochs += s.epochs * static_cast<std::uint64_t>(s.shards);
      skipped += s.epochs_skipped;
      jumps += s.horizon_jumps;
      transfers += s.cross_shard_transfers;
      for (const std::uint32_t p : s.pool_peak) pool_peak += p;
    }
    const double ev = static_cast<double>(events);
    Metrics m = {
        {"workload.gen_ms", ms_of(spans, "workload.generate_poisson_traffic")},
        {"workload.flows", static_cast<double>(flows_.size())},
        {"workload.offered_mb", offered_mb()},
        {"topo.build_ms", ms_of(spans, "topo.build_fat_tree")},
        {"topo.shards", static_cast<double>(sharded_ ? shards_ : 1)},
        {"topo.boundary_links", static_cast<double>(sharded_ ? boundary_links_ : 0)},
        {"sim.events", ev},
        {"sim.events_per_s", ev / run_s},
        {"sim.events_per_flow",
         ev / static_cast<double>(flows_.size() * last_.size())},
        {"sim.sim_us_per_s", sim_us / run_s},
        {"net.drops", static_cast<double>(drops)},
        {"net.pool_peak_pkts", static_cast<double>(pool_peak)},
        {"stats.table_ms", ms_of(spans, "stats.slowdown_by_size")},
        {"model.long_flows", static_cast<double>(tails_[0].count)},
        {"model.long_p999.hpcc", tails_[0].p999},
        {"model.long_p999.hpcc_vai_sf", tails_[1].p999},
    };
    if (sharded_) {
      const double serial_s = static_cast<double>(serial_ns_) / 1e9;
      m.insert(m.end(), {
          {"shard.epochs", static_cast<double>(epochs)},
          {"shard.skipped_frac",
           static_cast<double>(skipped) / static_cast<double>(shard_epochs)},
          {"shard.horizon_jumps", static_cast<double>(jumps)},
          {"shard.transfers", static_cast<double>(transfers)},
          {"shard.transfers_per_event", static_cast<double>(transfers) / ev},
          {"shard.cpu_per_wall", cpu_s / run_s},
          {"shard.overhead_1w",
           static_cast<double>(one_worker_ns_) / 1e9 / serial_s},
          {"shard.speedup", serial_s / run_s},
      });
    }
    return m;
  }

 private:
  /// Slowdown of one variant's last run.
  struct LongTail {
    double p999 = 0.0;  ///< Over flows > 1 MB.
    std::size_t count = 0;
    double top_group_p999 = 0.0;  ///< Largest of the 20 size groups.
    double top_group_p50 = 0.0;
  };
  double offered_mb() const {
    double bytes = 0.0;
    for (const net::FlowSpec& f : flows_) bytes += static_cast<double>(f.size_bytes);
    return bytes / 1e6;
  }

  std::uint64_t seed_;
  bool sharded_;
  int workers_ = 1;
  topo::FatTreeParams params_ = topo::sharded_scaled_fat_tree();
  std::vector<net::FlowSpec> flows_;
  std::vector<fx::DatacenterConfig> configs_;
  int shards_ = 1;
  int boundary_links_ = 0;
  std::vector<fx::DatacenterResult> last_;
  std::vector<fx::ShardedRunStats> last_stats_;
  std::vector<LongTail> tails_;
  std::int64_t serial_ns_ = 0;
  std::int64_t one_worker_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Incast: 16-to-1, 1 MB flows, 2 flows every 20 us, 17-host star.

/// Per-ACK time and count of one experiment's congestion controllers.
struct CcTally {
  std::int64_t ns = 0;
  std::uint64_t acks = 0;
};

/// Forwards to the variant's in-tree controller and times each ACK.  Only
/// traced passes install it: it makes the per-ACK dispatch virtual.
class TimedCc final : public fastcc::cc::CongestionControl {
 public:
  TimedCc(fastcc::cc::CcEngine inner, CcTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}
  void on_flow_start(net::FlowView flow) override { inner_.on_flow_start(flow); }
  void on_ack(const fastcc::cc::AckContext& ack, net::FlowView flow) override {
    const std::int64_t t0 = wall_ns();
    inner_.on_ack(ack, flow);
    tally_->ns += wall_ns() - t0;
    ++tally_->acks;
  }
  const char* name() const override { return inner_.name(); }

 private:
  fastcc::cc::CcEngine inner_;
  CcTally* tally_;
};

/// The controllers the timing adaptor wraps come from a CcFactory over a
/// copy of the experiment's star: the factory reads only path and BDP
/// parameters from it, and the copy must outlive the run.
struct AdaptorFactory {
  AdaptorFactory(const fx::IncastConfig& c, std::uint64_t seed)
      : network(simulator, seed),
        star(topo::build_star(network, c.star)),
        cc(network, c.variant, /*small_topology=*/true) {}
  sim::Simulator simulator;
  net::Network network;
  topo::Star star;
  fx::CcFactory cc;
};

class IncastWorkload final : public Workload {
 public:
  explicit IncastWorkload(std::uint64_t seed) : seed_(seed) {}

  bool setup(Tracer* t) override {
    {
      Scope s(t, "workload.incast_configs");
      configs_.clear();
      for (const fx::Variant v : {fx::Variant::kHpcc, fx::Variant::kHpccVaiSf,
                                  fx::Variant::kSwift, fx::Variant::kSwiftVaiSf}) {
        fx::IncastConfig c;
        c.variant = v;
        c.seed = seed_;
        configs_.push_back(std::move(c));
      }
    }
    Scope s(t, "topo.build_star");
    const fx::IncastConfig& c = configs_.front();
    sim::Simulator simulator;
    net::Network network(simulator, seed_);
    const topo::Star star = topo::build_star(network, c.star);
    if (static_cast<int>(star.hosts.size()) < c.pattern.senders + 1) {
      std::fprintf(stderr, "star has %zu hosts, incast needs %d\n",
                   star.hosts.size(), c.pattern.senders + 1);
      return false;
    }
    std::vector<net::NodeId> senders;
    for (int i = 0; i < c.pattern.senders; ++i) senders.push_back(star.hosts[i]->id());
    const auto specs = wl::make_incast(c.pattern, senders,
                                       star.hosts[c.pattern.senders]->id());
    flows_ = specs.size();
    offered_bytes_ = 0;
    for (const auto& f : specs) offered_bytes_ += f.size_bytes;
    last_.resize(configs_.size());
    tallies_.resize(configs_.size());
    traced_wall_.resize(configs_.size());
    return true;
  }

  std::size_t experiments() const override { return configs_.size(); }

  CallTime run(std::size_t i, Tracer* t) override {
    fx::IncastConfig c = configs_[i];
    CcTally tally;
    std::unique_ptr<AdaptorFactory> factory;
    if (t != nullptr) {
      factory = std::make_unique<AdaptorFactory>(c, seed_);
      c.custom_cc = [&factory, &tally](const net::PathInfo& path) {
        return fastcc::cc::CcEngine(
            std::make_unique<TimedCc>(factory->cc.make(path), &tally));
      };
    }
    fx::IncastResult r;
    CallTime ct;
    {
      Scope s(t, "exp.run_incast");
      ct = timed([&] { r = fx::run_incast(c); });
      if (t != nullptr) {
        t->log.add_aggregate("cc.on_ack", s.id(), tally.ns, tally.acks);
        tallies_[i] = tally;
        traced_wall_[i] = ct.wall;
      }
    }
    Scope s(t, "bench.check");
    const FailureCount fc = fcbench::check_incast(c.pattern.senders, r);
    failures += fc;
    // Traced passes must reproduce the untraced digest: the adaptor may
    // change timing, never behaviour.
    check_digest(i, fcbench::digest_of(r), fc.attempted);
    last_[i] = std::move(r);
    return ct;
  }

  void extras(Tracer*) override {}

  void report() const override {
    std::printf("inputs: %zu flows of the 16-to-1 incast, %.3f MB offered, "
                "seed %" PRIu64 "\n",
                flows_, static_cast<double>(offered_bytes_) / 1e6, seed_);
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const fx::IncastResult& r = last_[i];
      std::printf("experiment %-12s digest %016" PRIx64
                  " flows=%zu drops=%" PRIu64 " events=%" PRIu64 "\n",
                  fx::variant_name(configs_[i].variant),
                  i < digests_.size() ? digests_[i] : 0, r.flows.size(),
                  r.drops, r.events_executed);
    }
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      std::printf("shape: %-12s Jain settle (0.9) %.1f us over %zu samples, "
                  "finish spread %.1f us over %zu flows\n",
                  fx::variant_name(configs_[i].variant), settle_us(i),
                  last_[i].jain.size(), spread_us(i), last_[i].flows.size());
    }
  }

  Metrics layers(const Totals& spans, double run_s, double) const override {
    std::uint64_t events = 0, drops = 0;
    double sim_us = 0.0, util = 0.0, max_queue = 0.0;
    for (const fx::IncastResult& r : last_) {
      events += r.events_executed;
      drops += r.drops;
      sim_us += static_cast<double>(r.completion_time) / 1e3;
      util += r.mean_utilization() / static_cast<double>(last_.size());
      for (const auto& p : r.queue_bytes.points()) {
        max_queue = std::max(max_queue, p.value / 1e3);
      }
    }
    const double ev = static_cast<double>(events);
    Metrics m = {
        {"workload.gen_ms", ms_of(spans, "workload.incast_configs")},
        {"workload.flows", static_cast<double>(flows_)},
        {"workload.offered_mb", static_cast<double>(offered_bytes_) / 1e6},
        {"topo.build_ms", ms_of(spans, "topo.build_star")},
        {"topo.shards", 1.0},
        {"sim.events", ev},
        {"sim.events_per_s", ev / run_s},
        {"sim.events_per_flow",
         ev / static_cast<double>(flows_ * last_.size())},
        {"sim.sim_us_per_s", sim_us / run_s},
        {"net.drops", static_cast<double>(drops)},
        {"net.bottleneck_util", util},
        {"net.max_queue_kb", max_queue},
    };
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const std::string v = slug(configs_[i].variant);
      const CcTally& tl = tallies_[i];
      const double acks = static_cast<double>(tl.acks);
      m.emplace_back("cc.acks." + v, acks);
      m.emplace_back("cc.ack_ns_mean." + v,
                     acks > 0 ? static_cast<double>(tl.ns) / acks : 0.0);
      m.emplace_back("cc.share." + v,
                     traced_wall_[i] > 0 ? static_cast<double>(tl.ns) /
                                               static_cast<double>(traced_wall_[i])
                                         : 0.0);
      m.emplace_back("model.settle_us." + v, settle_us(i));
      m.emplace_back("model.spread_us." + v, spread_us(i));
    }
    return m;
  }

 private:
  double settle_us(std::size_t i) const {
    return static_cast<double>(last_[i].convergence(0.9).settle_time) / 1e3;
  }
  double spread_us(std::size_t i) const {
    return static_cast<double>(last_[i].finish_spread()) / 1e3;
  }

  std::uint64_t seed_;
  std::vector<fx::IncastConfig> configs_;
  std::size_t flows_ = 0;
  std::uint64_t offered_bytes_ = 0;
  std::vector<fx::IncastResult> last_;
  std::vector<CcTally> tallies_;
  std::vector<std::int64_t> traced_wall_;
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_options(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      o->workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      o->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (std::strcmp(key, "--seconds") == 0) {
      o->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') o->seconds = 0.0;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") == 0) o->trace = 0;
      if (std::strcmp(val, "1") == 0) o->trace = 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && have_seed &&
         o->seconds > 0.0 && o->seconds <= 600.0 && o->trace >= 0;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fattree_hadoop_serial") {
    return std::make_unique<FatTreeWorkload>(o.seed, false);
  }
  if (o.workload == "fattree_hadoop_sharded") {
    return std::make_unique<FatTreeWorkload>(o.seed, true);
  }
  if (o.workload == "incast_16to1") return std::make_unique<IncastWorkload>(o.seed);
  return nullptr;
}

/// A metric of the result line.
struct Metric {
  const char* name;
  const char* unit;
  double value = 0.0;
};

/// Every per-layer metric of the benchmark, in output order.  A workload
/// that does not exercise a layer reports 0 for it.
constexpr Metric kLayerMetrics[] = {
    {"workload.gen_ms", "ms"}, {"workload.flows", "count"},
    {"workload.offered_mb", "MB"},
    {"topo.build_ms", "ms"}, {"topo.shards", "count"},
    {"topo.boundary_links", "count"},
    {"sim.events", "count"}, {"sim.events_per_s", "1/s"},
    {"sim.events_per_flow", "count"}, {"sim.sim_us_per_s", "us/s"},
    {"net.drops", "count"}, {"net.pool_peak_pkts", "count"},
    {"net.bottleneck_util", "ratio"}, {"net.max_queue_kb", "KB"},
    {"cc.acks.hpcc", "count"}, {"cc.ack_ns_mean.hpcc", "ns"},
    {"cc.share.hpcc", "ratio"},
    {"cc.acks.hpcc_vai_sf", "count"}, {"cc.ack_ns_mean.hpcc_vai_sf", "ns"},
    {"cc.share.hpcc_vai_sf", "ratio"},
    {"cc.acks.swift", "count"}, {"cc.ack_ns_mean.swift", "ns"},
    {"cc.share.swift", "ratio"},
    {"cc.acks.swift_vai_sf", "count"}, {"cc.ack_ns_mean.swift_vai_sf", "ns"},
    {"cc.share.swift_vai_sf", "ratio"},
    {"shard.epochs", "count"}, {"shard.skipped_frac", "ratio"},
    {"shard.horizon_jumps", "count"}, {"shard.transfers", "count"},
    {"shard.transfers_per_event", "ratio"}, {"shard.cpu_per_wall", "ratio"},
    {"shard.overhead_1w", "ratio"}, {"shard.speedup", "ratio"},
    {"stats.table_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"model.long_flows", "count"}, {"model.long_p999.hpcc", "ratio"},
    {"model.long_p999.hpcc_vai_sf", "ratio"},
    {"model.settle_us.hpcc", "us"}, {"model.settle_us.hpcc_vai_sf", "us"},
    {"model.settle_us.swift", "us"}, {"model.settle_us.swift_vai_sf", "us"},
    {"model.spread_us.hpcc", "us"}, {"model.spread_us.hpcc_vai_sf", "us"},
    {"model.spread_us.swift", "us"}, {"model.spread_us.swift_vai_sf", "us"},
};

void print_result(const FailureCount& fc, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              fc.failed == 0 ? "true" : "false", fc.attempted, fc.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: fcbench --workload <fattree_hadoop_serial|"
                 "fattree_hadoop_sharded|incast_16to1> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  Tracer tracer;
  Tracer* const traced = opt.trace == 1 ? &tracer : nullptr;

  // Set-up runs once before the first simulation call and again before
  // later passes, spread evenly over the run, so its median samples the
  // same host conditions as the passes do.  Each set-up regenerates the
  // identical inputs from the seed.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const std::int64_t t0 = wall_ns();
    const bool ok = w->setup(traced);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    return ok;
  };
  if (!set_up()) return 1;

  // Timed passes.  With tracing, even passes are untraced and odd ones
  // traced, so both see the same host conditions.
  std::vector<double> pass_wall, pass_cpu, traced_wall, exp_ms;
  // Fastest untraced call of each experiment over the run.
  std::vector<CallTime> best(w->experiments(),
                             {std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::int64_t>::max()});
  const std::int64_t start = wall_ns();
  const auto deadline = static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int pass = 0;; ++pass) {
    const std::int64_t elapsed = wall_ns() - start;
    const auto done = static_cast<std::int64_t>(setup_s.size());
    if (done < kSetupReps && elapsed >= deadline / kSetupReps * done &&
        !set_up()) {
      return 1;
    }
    const bool trace_pass = traced != nullptr && pass % 2 == 1;
    Tracer* t = trace_pass ? traced : nullptr;
    const int pass_span = t ? t->log.begin("bench.pass", -1, wall_ns()) : -1;
    if (t) t->parent = pass_span;
    CallTime sum;
    for (std::size_t i = 0; i < w->experiments(); ++i) {
      const CallTime ct = w->run(i, t);
      sum.wall += ct.wall;
      sum.cpu += ct.cpu;
      if (!trace_pass) {
        exp_ms.push_back(static_cast<double>(ct.wall) / 1e6);
        best[i].wall = std::min(best[i].wall, ct.wall);
        best[i].cpu = std::min(best[i].cpu, ct.cpu);
      }
    }
    if (t) {
      t->log.end(pass_span, wall_ns());
      t->parent = -1;
    }
    (trace_pass ? traced_wall : pass_wall).push_back(static_cast<double>(sum.wall) / 1e9);
    if (!trace_pass) pass_cpu.push_back(static_cast<double>(sum.cpu) / 1e9);
    const bool enough = traced == nullptr ? exp_ms.size() >= kMinExperiments
                                          : !traced_wall.empty();
    if (wall_ns() - start >= deadline && enough) break;
  }
  w->extras(traced);

  // One pass with every call at its fastest: the host's contention phases
  // only ever add time, so this is the steadiest estimate of the program's
  // own cost.  The median pass is printed beside it.
  double run_s = 0.0;
  double cpu_s = 0.0;
  for (const CallTime& b : best) {
    run_s += static_cast<double>(b.wall) / 1e9;
    cpu_s += static_cast<double>(b.cpu) / 1e9;
  }
  const fcbench::TailPick tail = fcbench::ten_beyond_tail(exp_ms);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("fcbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace);
  w->report();
  auto quartiles = [](const char* label, const std::vector<double>& v) {
    std::printf("%s: n=%zu min %.6g p25 %.6g p50 %.6g p75 %.6g max %.6g\n",
                label, v.size(), fastcc::stats::percentile(v, 0),
                fastcc::stats::percentile(v, 25), fastcc::stats::percentile(v, 50),
                fastcc::stats::percentile(v, 75), fastcc::stats::percentile(v, 100));
  };
  quartiles("setup_s", setup_s);
  quartiles("pass wall s", pass_wall);
  quartiles("pass cpu s", pass_cpu);
  quartiles("exp_ms", exp_ms);
  std::printf("run_s %.6g s, cpu_s %.6g s: each experiment's fastest call, "
              "summed over the %zu experiments of a pass\n",
              run_s, cpu_s, best.size());
  std::printf("exp_ms_p50 %.6g ms, exp_ms_tail %.6g ms: p%.2f of %zu "
              "experiments%s\n",
              fcbench::median(exp_ms), tail.value, tail.percentile, tail.samples,
              tail.meets_rule ? "" : " (below the ten-beyond rule)");
  std::printf("failed_frac: %.6g (%" PRIu64 " of %" PRIu64 " attempted)\n",
              w->failures.frac(), w->failures.failed, w->failures.attempted);

  std::vector<Metric> out;
  if (traced == nullptr) {
    out = {{"run_s", "s", run_s},
           {"cpu_s", "s", cpu_s},
           {"setup_s", "s", fcbench::median(setup_s)},
           {"peak_rss_mb", "MB", peak_rss_mb}};
  } else {
    std::printf("layers (traced passes): name calls total_ms self_ms\n");
    const Totals totals = tracer.log.totals();
    for (const auto& [name, lt] : totals) {
      std::printf("  %-34s %8" PRIu64 " %12.3f %12.3f\n", name.c_str(), lt.calls,
                  static_cast<double>(lt.total_ns) / 1e6,
                  static_cast<double>(lt.self_ns) / 1e6);
    }
    std::map<std::string, double> values;
    for (const auto& [name, v] : w->layers(totals, run_s, cpu_s)) values[name] = v;
    values["trace.overhead_frac"] =
        fcbench::median(traced_wall) / fcbench::median(pass_wall) - 1.0;
    for (Metric m : kLayerMetrics) {
      m.value = values[m.name];
      out.push_back(m);
    }
  }
  print_result(w->failures, out);
  return 0;
}
