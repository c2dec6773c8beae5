#include "ledger.h"

#include <algorithm>
#include <utility>

#include "stats/percentile.h"

namespace fcbench {

namespace fx = fastcc::exp;

double median(std::vector<double> samples) {
  return fastcc::stats::percentile(samples, 50.0);
}

TailPick ten_beyond_tail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailPick pick;
  pick.samples = samples.size();
  const std::size_t n = samples.size();
  if (n < 11) {
    pick.value = samples.back();
    pick.percentile = 100.0;
    return pick;
  }
  // Nearest rank r = n - 10 leaves exactly ten samples above it, and
  // 100 * r / n is the highest percentile whose nearest rank is r.
  const std::size_t rank = n - 10;
  pick.value = samples[rank - 1];
  pick.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  pick.meets_rule = true;
  return pick;
}

int SpanLog::begin(std::string name, int parent, std::int64_t now_ns) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = now_ns;
  s.end_ns = now_ns;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id, std::int64_t now_ns) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns;
}

void SpanLog::add_aggregate(std::string name, int parent, std::int64_t total_ns,
                            std::uint64_t calls) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.end_ns = total_ns;
  s.aggregate = true;
  s.calls = calls;
  spans_.push_back(std::move(s));
}

std::int64_t SpanLog::self_ns(int id) const {
  std::vector<int> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) children.push_back(static_cast<int>(i));
  }
  return self_ns(id, children);
}

std::int64_t SpanLog::self_ns(int id, const std::vector<int>& children) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  std::int64_t aggregate_ns = 0;
  for (const int c : children) {
    const Span& child = spans_[static_cast<std::size_t>(c)];
    if (child.aggregate) {
      aggregate_ns += child.duration_ns();
      continue;
    }
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  const std::int64_t dur = span.duration_ns();
  return dur - std::min(dur, union_ns + aggregate_ns);
}

std::map<std::string, LayerTotal> SpanLog::totals() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotal& t = out[s.name];
    t.calls += s.calls;
    t.total_ns += s.duration_ns();
    t.self_ns += s.aggregate ? s.duration_ns()
                             : self_ns(static_cast<int>(i), children[i]);
  }
  return out;
}

Digest& Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
  return *this;
}

std::uint64_t digest_of(const fx::DatacenterResult& r) {
  std::vector<fastcc::stats::FlowRecord> flows = r.flows;
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  Digest d;
  d.add(flows.size());
  for (const auto& f : flows) {
    d.add(f.id).add(f.size_bytes);
    d.add(static_cast<std::uint64_t>(f.start_time));
    d.add(static_cast<std::uint64_t>(f.fct));
    d.add(static_cast<std::uint64_t>(f.ideal_fct));
  }
  d.add(r.drops).add(r.events_executed);
  return d.value();
}

std::uint64_t digest_of(const fx::IncastResult& r) {
  std::vector<fx::FlowTiming> flows = r.flows;
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  Digest d;
  d.add(flows.size());
  for (const auto& f : flows) {
    d.add(f.id);
    d.add(static_cast<std::uint64_t>(f.start));
    d.add(static_cast<std::uint64_t>(f.finish));
  }
  d.add(r.drops).add(r.events_executed);
  return d.value();
}

double FailureCount::frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

FailureCount check_datacenter(const std::vector<fastcc::net::FlowSpec>& inputs,
                              const fx::DatacenterResult& r, bool run_ok) {
  FailureCount c;
  c.attempted = inputs.size();
  if (!run_ok || r.drops != 0) {
    c.failed = inputs.size();
    return c;
  }
  // Per input id: its size, how many records it got, and whether any of
  // them was wrong.  Ids are dense from the generator but need not be.
  struct Seen {
    std::uint64_t size = 0;
    int records = 0;
    bool bad = false;
  };
  std::map<fastcc::net::FlowId, Seen> flows;
  for (const auto& spec : inputs) flows[spec.id].size = spec.size_bytes;
  for (const auto& rec : r.flows) {
    auto it = flows.find(rec.id);
    if (it == flows.end()) {
      ++c.failed;  // a record for a flow that was never input
      continue;
    }
    ++it->second.records;
    it->second.bad = it->second.bad || rec.size_bytes != it->second.size ||
                     rec.ideal_fct <= 0 || rec.slowdown() < 1.0;
  }
  for (const auto& [id, seen] : flows) {
    if (seen.records != 1 || seen.bad) ++c.failed;
  }
  return c;
}

FailureCount check_incast(int senders, const fx::IncastResult& r) {
  FailureCount c;
  c.attempted = 1;
  bool ok = r.drops == 0 && static_cast<int>(r.flows.size()) == senders;
  std::vector<int> seen(static_cast<std::size_t>(senders) + 1, 0);
  for (const auto& f : r.flows) {
    if (f.id < 1 || static_cast<int>(f.id) > senders || f.finish <= f.start) {
      ok = false;
      continue;
    }
    ++seen[f.id];
  }
  for (int id = 1; id <= senders; ++id) ok = ok && seen[id] == 1;
  c.failed = ok ? 0 : 1;
  return c;
}

}  // namespace fcbench
