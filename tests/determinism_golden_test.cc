// Determinism golden test: the same experiment run twice in one process must
// produce byte-identical output.  DESIGN.md §5 promises this, and the
// allocation-free event dispatch (slot reuse, generation stamps, calendar
// bucket compaction) must never let physical storage order leak into event
// execution order.  Every comparison below is exact — no tolerances.
//
// The pinned digests at the end go further: they hold incast and fat-tree
// runs to values committed in this file, so a change that moves the schedule
// fails here even though it reproduces itself within one process.  A
// deliberate move updates the value in the same change and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ios>
#include <ostream>
#include <string>
#include <vector>

#include "experiments/incast.h"
#include "experiments/sharded.h"
#include "stats/timeseries.h"
#include "workload/distributions.h"

namespace fastcc::exp {
namespace {

IncastConfig hpcc_incast16() {
  IncastConfig c;
  c.variant = Variant::kHpcc;
  c.pattern.senders = 16;
  c.pattern.flow_bytes = 150'000;
  c.star.host_count = 17;
  return c;
}

void expect_bytewise_equal(const stats::TimeSeries& a,
                           const stats::TimeSeries& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const stats::TimePoint& pa = a.points()[i];
    const stats::TimePoint& pb = b.points()[i];
    EXPECT_EQ(pa.t, pb.t) << what << " point " << i;
    // Bitwise, not ==: distinguishes -0.0 from 0.0 and catches any NaN
    // drifting in (NaN == NaN is false but identical bits are identical).
    EXPECT_EQ(std::memcmp(&pa.value, &pb.value, sizeof(double)), 0)
        << what << " point " << i << ": " << pa.value << " vs " << pb.value;
  }
}

TEST(DeterminismGolden, Incast16To1HpccIsByteIdenticalAcrossReruns) {
  const IncastResult first = run_incast(hpcc_incast16());
  const IncastResult second = run_incast(hpcc_incast16());

  // Event-level identity: same number of events executed means the two runs
  // traced the same schedule, not merely similar aggregates.
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.drops, second.drops);
  EXPECT_EQ(first.completion_time, second.completion_time);

  ASSERT_EQ(first.flows.size(), second.flows.size());
  for (std::size_t i = 0; i < first.flows.size(); ++i) {
    EXPECT_EQ(first.flows[i].id, second.flows[i].id) << "flow " << i;
    EXPECT_EQ(first.flows[i].start, second.flows[i].start) << "flow " << i;
    EXPECT_EQ(first.flows[i].finish, second.flows[i].finish) << "flow " << i;
  }

  expect_bytewise_equal(first.jain, second.jain, "jain");
  expect_bytewise_equal(first.queue_bytes, second.queue_bytes, "queue_bytes");
  expect_bytewise_equal(first.utilization, second.utilization, "utilization");
}

TEST(DeterminismGolden, LossyIncastWithRtoRecoveryIsByteIdentical) {
  // The lossless golden above never exercises the recovery machinery.  This
  // one caps the bottleneck buffer with PFC off, so the synchronized burst
  // overflows: drops, duplicate ACKs, go-back-N, and retransmission timers
  // (now on the per-host timing wheel) all fire — and the two runs must
  // still trace byte-identical schedules.
  IncastConfig c = hpcc_incast16();
  c.buffer_limit_bytes = 40'000;  // a few dozen MTUs: guaranteed overflow
  const IncastResult first = run_incast(c);
  const IncastResult second = run_incast(c);

  // The scenario must actually be lossy, or this golden silently collapses
  // into the lossless one.
  ASSERT_GT(first.drops, 0u);

  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.drops, second.drops);
  EXPECT_EQ(first.completion_time, second.completion_time);

  ASSERT_EQ(first.flows.size(), second.flows.size());
  for (std::size_t i = 0; i < first.flows.size(); ++i) {
    EXPECT_EQ(first.flows[i].id, second.flows[i].id) << "flow " << i;
    EXPECT_EQ(first.flows[i].start, second.flows[i].start) << "flow " << i;
    EXPECT_EQ(first.flows[i].finish, second.flows[i].finish) << "flow " << i;
  }

  expect_bytewise_equal(first.jain, second.jain, "jain");
  expect_bytewise_equal(first.queue_bytes, second.queue_bytes, "queue_bytes");
  expect_bytewise_equal(first.utilization, second.utilization, "utilization");
}

/// FNV-1a over 64-bit words, byte by byte (the fold fcbench prints).
class Fnv1a {
 public:
  Fnv1a& add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Id-sorted (id, start, finish), then drops and events executed.
std::uint64_t flow_digest(const IncastResult& r) {
  std::vector<FlowTiming> flows = r.flows;
  std::sort(flows.begin(), flows.end(),
            [](const FlowTiming& a, const FlowTiming& b) { return a.id < b.id; });
  Fnv1a d;
  d.add(flows.size());
  for (const FlowTiming& f : flows) {
    d.add(f.id);
    d.add(static_cast<std::uint64_t>(f.start));
    d.add(static_cast<std::uint64_t>(f.finish));
  }
  d.add(r.drops).add(r.events_executed);
  return d.value();
}

/// Every point of the Jain, queue and utilization series: time and the
/// value's bit pattern.
std::uint64_t series_digest(const IncastResult& r) {
  Fnv1a d;
  for (const stats::TimeSeries* s : {&r.jain, &r.queue_bytes, &r.utilization}) {
    d.add(s->size());
    for (const stats::TimePoint& p : s->points()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &p.value, sizeof bits);
      d.add(static_cast<std::uint64_t>(p.t)).add(bits);
    }
  }
  return d.value();
}

struct PinnedRun {
  const char* name;
  IncastConfig config;
  std::uint64_t flow_digest;
  std::uint64_t series_digest;
  std::uint64_t events;
};

IncastConfig paper_incast(Variant v) {
  IncastConfig c;  // 16-1, 1 MB flows, 2 every 20 us, seed 1
  c.variant = v;
  return c;
}

IncastConfig lossy_incast() {
  IncastConfig c = hpcc_incast16();
  c.buffer_limit_bytes = 40'000;
  return c;
}

IncastConfig probed_incast() {
  IncastConfig c = paper_incast(Variant::kHpccVaiSf);
  c.probe_count = 20;
  return c;
}

// The first four flow digests are the ones fcbench's incast_16to1 workload
// prints at seed 1.  DCQCN's RED marks draw from the engine's shard 0 Rng
// stream (forked from the network stream), like every fat-tree run.
const PinnedRun kPinned[] = {
    {"Hpcc", paper_incast(Variant::kHpcc), 0x7d9864cb00f06e36,
     0x835717222630fb48, 78642},
    {"HpccVaiSf", paper_incast(Variant::kHpccVaiSf), 0x34d109ffbb51dd98,
     0xf4baeaef005483b5, 73311},
    {"Swift", paper_incast(Variant::kSwift), 0x462c56f384705cc1,
     0x5946a524b77ea7b8, 64041},
    {"SwiftVaiSf", paper_incast(Variant::kSwiftVaiSf), 0xded5a202f138da1c,
     0xc624abcae9ab3ad3, 62039},
    {"Dcqcn", paper_incast(Variant::kDcqcn), 0x715372bfc2549cd5,
     0x3f5baf2740c3c9de, 98079},
    {"LossyHpcc", lossy_incast(), 0xb46b1427d4221055, 0x4b5821ca493b0b8d,
     82825},
    {"HpccVaiSfWithProbes", probed_incast(), 0x5ae388c49b947466,
     0x1eeda4cd2941fca1, 71002},
};

// Test listings print the name, not the struct's bytes (which hold
// pointers and so change from build to build).
void PrintTo(const PinnedRun& run, std::ostream* os) { *os << run.name; }

class PinnedIncast : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedIncast, DigestsMatchCommittedValues) {
  const PinnedRun& run = GetParam();
  const IncastResult r = run_incast(run.config);
  EXPECT_EQ(r.events_executed, run.events);
  EXPECT_EQ(flow_digest(r), run.flow_digest)
      << std::hex << "flow digest 0x" << flow_digest(r);
  EXPECT_EQ(series_digest(r), run.series_digest)
      << std::hex << "series digest 0x" << series_digest(r);
}

INSTANTIATE_TEST_SUITE_P(
    DeterminismGolden, PinnedIncast, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedRun>& param_info) {
      return std::string(param_info.param.name);
    });

/// Id-sorted (id, size, start, fct, ideal fct), then drops and events
/// executed: fcbench's fat-tree digest.
std::uint64_t flow_digest(const DatacenterResult& r) {
  std::vector<stats::FlowRecord> flows = r.flows;
  std::sort(flows.begin(), flows.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
              return a.id < b.id;
            });
  Fnv1a d;
  d.add(flows.size());
  for (const stats::FlowRecord& f : flows) {
    d.add(f.id).add(f.size_bytes);
    d.add(static_cast<std::uint64_t>(f.start_time));
    d.add(static_cast<std::uint64_t>(f.fct));
    d.add(static_cast<std::uint64_t>(f.ideal_fct));
  }
  d.add(r.drops).add(r.events_executed);
  return d.value();
}

enum class Partition { kSerial, kPod, kTor };

struct PinnedFatTreeRun {
  const char* name;
  Partition partition;
  std::uint64_t flow_digest;
  std::uint64_t events;
};

/// Hadoop at 50 % load on the 64-host scaled fat-tree, 100 us of arrivals:
/// a CI-sized cut of the paper's Fig. 10 input (and fcbench's).
DatacenterConfig pinned_fat_tree() {
  DatacenterConfig c;
  c.variant = Variant::kHpcc;
  c.topo = topo::sharded_scaled_fat_tree();
  c.components = {{&workload::hadoop_cdf(), 1.0}};
  c.load = 0.5;
  c.generate_duration = 100 * sim::kMicrosecond;
  c.seed = 1;
  return c;
}

// Each partition draws from its own per-shard Rng streams, so the three
// rows differ from each other; each is fixed on its own.  The worker count
// never changes a sharded result, so one worker runs both sharded rows.
const PinnedFatTreeRun kPinnedFatTree[] = {
    {"Serial", Partition::kSerial, 0xc5e77c879bb247c2, 500690},
    {"PodSharded", Partition::kPod, 0xebc7cb9f00ce4da3, 501348},
    {"TorSharded", Partition::kTor, 0xa257b351114ee415, 500753},
};

void PrintTo(const PinnedFatTreeRun& run, std::ostream* os) {
  *os << run.name;
}

class PinnedFatTree : public ::testing::TestWithParam<PinnedFatTreeRun> {};

TEST_P(PinnedFatTree, DigestMatchesCommittedValue) {
  const PinnedFatTreeRun& run = GetParam();
  DatacenterConfig c = pinned_fat_tree();
  DatacenterResult r;
  if (run.partition == Partition::kSerial) {
    r = run_datacenter(c);
  } else {
    c.shard_granularity = run.partition == Partition::kPod
                              ? topo::ShardGranularity::kPod
                              : topo::ShardGranularity::kTor;
    r = run_datacenter_sharded(c, 1);
  }
  ASSERT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.events_executed, run.events);
  EXPECT_EQ(flow_digest(r), run.flow_digest)
      << std::hex << "flow digest 0x" << flow_digest(r);
}

INSTANTIATE_TEST_SUITE_P(
    DeterminismGolden, PinnedFatTree, ::testing::ValuesIn(kPinnedFatTree),
    [](const ::testing::TestParamInfo<PinnedFatTreeRun>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace fastcc::exp
