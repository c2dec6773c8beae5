#include "experiments/incast.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fairness.h"
#include "experiments/engine.h"
#include "net/monitor.h"
#include "stats/percentile.h"

namespace fastcc::exp {

namespace {

/// Probe ids start here, clear of the incast's 1..senders.
constexpr net::FlowId kFirstProbeId = 1'000'000;

/// Always-on checks: the host indices below must exist, and a sampler with
/// a non-positive interval would re-arm at the same instant forever.
void validate(const IncastConfig& config) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("incast config: " + what);
  };
  const int senders = config.pattern.senders;
  if (senders < 1) fail("senders must be at least 1");
  if (config.star.host_count < senders + 1) {
    fail("star has " + std::to_string(config.star.host_count) + " hosts, " +
         std::to_string(senders) + " senders need " +
         std::to_string(senders + 1));
  }
  if (config.jain_sample_interval <= 0 || config.queue_sample_interval <= 0) {
    fail("sample intervals must be positive");
  }
}

}  // namespace

sim::Time IncastResult::median_probe_fct() const {
  if (probes.empty()) return -1;
  stats::PercentileEstimator est;
  for (const FlowTiming& p : probes) {
    est.add(static_cast<double>(p.fct()));
  }
  return static_cast<sim::Time>(est.median());
}

sim::Time IncastResult::finish_spread() const {
  assert(!flows.empty());
  auto [min_it, max_it] = std::minmax_element(
      flows.begin(), flows.end(),
      [](const FlowTiming& a, const FlowTiming& b) { return a.finish < b.finish; });
  return max_it->finish - min_it->finish;
}

IncastResult run_incast(const IncastConfig& config) {
  validate(config);

  // Host indices: senders 0..senders-1, the receiver at `senders`, and
  // with probing one extra, last host that sends the probes.
  const int senders = config.pattern.senders;
  const auto receiver = static_cast<net::NodeId>(senders);
  topo::StarParams star_params = config.star;
  if (config.probe_count > 0) ++star_params.host_count;

  DatacenterConfig dc;
  dc.variant = config.variant;
  dc.seed = config.seed;
  dc.max_sim_time = config.max_sim_time;
  // Probes go first, so same-timestamp starts keep the probe-first order.
  for (int i = 0; i < config.probe_count; ++i) {
    net::FlowSpec spec;
    spec.id = kFirstProbeId + static_cast<net::FlowId>(i);
    spec.src = static_cast<net::NodeId>(star_params.host_count - 1);
    spec.dst = receiver;
    spec.size_bytes = config.probe_bytes;
    spec.start_time = (i + 1) * config.probe_interval;
    dc.preset_flows.push_back(spec);
  }
  std::vector<net::NodeId> sender_ids(static_cast<std::size_t>(senders));
  std::iota(sender_ids.begin(), sender_ids.end(), net::NodeId{0});
  const std::vector<net::FlowSpec> specs =
      workload::make_incast(config.pattern, sender_ids, receiver);
  dc.preset_flows.insert(dc.preset_flows.end(), specs.begin(), specs.end());

  // The samplers re-arm until every incast flow has completed; probes do
  // not hold them open.
  IncastResult result;
  const std::string label = variant_name(config.variant);
  result.jain = stats::TimeSeries(label);
  std::size_t completed = 0;
  auto running = [&] { return completed < specs.size(); };
  std::vector<std::uint64_t> last_acked(specs.size(), 0);
  std::function<void()> sample_jain;
  std::optional<net::QueueMonitor> queue;
  std::optional<net::UtilizationMonitor> util;

  EngineInput input;
  input.config = &dc;
  input.star = &star_params;
  input.buffer_limit_bytes = config.buffer_limit_bytes;
  input.pfc = config.pfc;
  input.custom_cc = config.custom_cc;
  input.on_complete = [&](const net::FlowTx& f) {
    if (f.spec.id < kFirstProbeId) ++completed;
  };
  input.attach_samplers = [&](sim::Simulator& sim, const topo::Star& star) {
    sample_jain = [&] {
      const sim::Time now = sim.now();
      const sim::Time window_start = now - config.jain_sample_interval;
      std::vector<double> throughput;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const net::FlowTx* f = star.hosts[specs[i].src]->flow(specs[i].id);
        if (f == nullptr) continue;  // not started yet
        const std::uint64_t delta = f->cum_acked - last_acked[i];
        last_acked[i] = f->cum_acked;
        // Only flows active for the whole window participate; flows that
        // start or finish mid-window would otherwise be misread as slow.
        const bool full_window = f->spec.start_time <= window_start &&
                                 (!f->finished() || f->finish_time >= now);
        if (!full_window) continue;
        throughput.push_back(static_cast<double>(delta));
      }
      if (!throughput.empty()) {
        result.jain.add(now, core::jain_index(throughput));
      }
      if (running()) sim.after(config.jain_sample_interval, sample_jain);
    };
    sim.after(config.jain_sample_interval, sample_jain);

    // Bottleneck: the hub's egress port toward the receiver.
    const net::Host* rx = star.hosts[receiver];
    int port = 0;
    while (star.hub->port(port).peer() != rx) ++port;
    const net::Port& bottleneck = star.hub->port(port);
    queue.emplace(sim, bottleneck, config.queue_sample_interval, label,
                  running);
    queue->start();
    util.emplace(sim, bottleneck, config.jain_sample_interval, label, running);
    // Sampling rides the hub's timing wheel: one global event per expiry
    // instead of a standing entry in the calendar queue.
    util->ride_wheel(&star.hub->wheel());
    util->start();
  };

  const DatacenterResult run = run_engine(input);
  if (run.unfinished > 0) {
    throw std::runtime_error("incast: " + std::to_string(run.unfinished) +
                             " of " + std::to_string(dc.preset_flows.size()) +
                             " flows unfinished at max_sim_time");
  }

  // Records are id-sorted: the incast flows (ids 1..senders, which
  // make_incast assigns in start order), then the probes.
  for (const stats::FlowRecord& r : run.flows) {
    const FlowTiming t{r.id, r.start_time, r.start_time + r.fct};
    if (r.id >= kFirstProbeId) {
      result.probes.push_back(t);
      continue;
    }
    result.flows.push_back(t);
    result.completion_time = std::max(result.completion_time, t.finish);
  }
  result.queue_bytes = queue->series();
  result.utilization = util->series();
  result.drops = run.drops;
  result.events_executed = run.events_executed;
  return result;
}

}  // namespace fastcc::exp
