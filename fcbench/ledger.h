// The benchmark's own arithmetic: tail selection, span self time, result
// digests and failure counting.  Kept apart from fcbench.cc so it can be
// unit-tested (ledger_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "net/flow.h"

namespace fcbench {

/// Nearest-rank median (the repo's percentile rule).  Precondition:
/// samples non-empty.
double median(std::vector<double> samples);

/// The tail statistic of the benchmark: the highest nearest-rank
/// percentile that still has at least ten samples strictly beyond it.
/// With n samples that is rank n - 10, i.e. percentile 100 * (n - 10) / n.
struct TailPick {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  /// False when there are fewer than 11 samples; `value` is then the
  /// maximum and `percentile` is 100.
  bool meets_rule = false;
};
/// Precondition: samples non-empty.
TailPick ten_beyond_tail(std::vector<double> samples);

/// A timed region around one call into a layer, kept in memory for the
/// whole run.  An aggregate span sums many short calls made inside its
/// parent (for example every congestion-control ACK of one experiment):
/// it has a total duration and a call count but no single interval.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool aggregate = false;
  std::uint64_t calls = 1;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

struct LayerTotal {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanLog {
 public:
  /// Opens a span at `now_ns`; returns its id.
  int begin(std::string name, int parent, std::int64_t now_ns);
  void end(int id, std::int64_t now_ns);
  /// Records `calls` calls totalling `total_ns` made inside `parent`.
  void add_aggregate(std::string name, int parent, std::int64_t total_ns,
                     std::uint64_t calls);

  /// Duration minus the part of the span's interval its children cover:
  /// the union of its interval children (clipped to the span) plus the
  /// summed time of its aggregate children, capped at the duration.
  std::int64_t self_ns(int id) const;

  /// Calls, total and self time per span name.
  std::map<std::string, LayerTotal> totals() const;

 private:
  std::int64_t self_ns(int id, const std::vector<int>& children) const;

  std::vector<Span> spans_;
};

/// FNV-1a over 64-bit words: stable across runs, builds and hosts.
class Digest {
 public:
  Digest& add(std::uint64_t word);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Digest of a datacenter result over its flow records sorted by id, its
/// drops and its event count.  Independent of completion order.
std::uint64_t digest_of(const fastcc::exp::DatacenterResult& r);
/// Digest of an incast result over its flow timings sorted by id, its
/// drops and its event count.
std::uint64_t digest_of(const fastcc::exp::IncastResult& r);

struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  FailureCount& operator+=(const FailureCount& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
  /// failed / attempted, 0 when nothing was attempted.
  double frac() const;
};

/// Checks one datacenter run against the flows it was given.  Every input
/// flow is one attempt.  A flow fails when it has no record (unfinished),
/// more than one record, a record whose size differs from its input, or a
/// slowdown below 1.  Records of ids that were never input count as extra
/// failures.  Drops, or `run_ok == false` (e.g. an undrained sharded run),
/// fail every flow, since these configs are lossless and must drain.
FailureCount check_datacenter(const std::vector<fastcc::net::FlowSpec>& inputs,
                              const fastcc::exp::DatacenterResult& r,
                              bool run_ok = true);

/// Checks one incast run: it is one attempt, failed unless exactly the
/// flows 1..`senders` finished once each after starting, with no drops.
FailureCount check_incast(int senders, const fastcc::exp::IncastResult& r);

}  // namespace fcbench
