// Tests of the benchmark's own arithmetic.  Build and run with
//   cmake --build .bench_build/fcbench --target fcbench_test
//   .bench_build/fcbench/fcbench_test
#include "ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace fcbench {
namespace {

namespace fx = fastcc::exp;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TenBeyondTail, LeavesExactlyTenSamplesAbove) {
  for (const int n : {11, 20, 100, 801, 1000}) {
    std::vector<double> v = iota(n);
    std::shuffle(v.begin(), v.end(), std::mt19937(n));
    const TailPick t = ten_beyond_tail(v);
    EXPECT_TRUE(t.meets_rule);
    EXPECT_EQ(t.samples, static_cast<std::size_t>(n));
    EXPECT_EQ(t.value, n - 10);
    EXPECT_EQ(std::count_if(v.begin(), v.end(),
                            [&](double x) { return x > t.value; }),
              10);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0 * (n - 10) / n);
  }
}

TEST(TenBeyondTail, KnownPercentiles) {
  EXPECT_DOUBLE_EQ(ten_beyond_tail(iota(100)).percentile, 90.0);
  EXPECT_DOUBLE_EQ(ten_beyond_tail(iota(1000)).percentile, 99.0);
  EXPECT_DOUBLE_EQ(ten_beyond_tail(iota(20)).percentile, 50.0);
}

TEST(TenBeyondTail, TooFewSamplesFallsBackToMax) {
  const TailPick t = ten_beyond_tail({3.0, 9.0, 1.0});
  EXPECT_FALSE(t.meets_rule);
  EXPECT_EQ(t.value, 9.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_FALSE(ten_beyond_tail(iota(10)).meets_rule);
}

TEST(Median, NearestRank) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(SpanLog, SelfTimeSubtractsUnionOfChildren) {
  SpanLog log;
  const int root = log.begin("root", -1, 0);
  const int a = log.begin("a", root, 10);
  log.end(a, 30);
  const int b = log.begin("b", root, 20);  // overlaps a by 10
  log.end(b, 40);
  const int c = log.begin("c", root, 90);  // runs past the parent's end
  log.end(c, 120);
  log.end(root, 100);
  // Covered: [10, 40) and [90, 100) -> 40 of 100.
  EXPECT_EQ(log.self_ns(root), 60);
  EXPECT_EQ(log.self_ns(a), 20);
}

TEST(SpanLog, GrandchildrenDoNotCountTwice) {
  SpanLog log;
  const int root = log.begin("root", -1, 0);
  const int child = log.begin("child", root, 0);
  const int grand = log.begin("grand", child, 10);
  log.end(grand, 40);
  log.end(child, 50);
  log.end(root, 100);
  EXPECT_EQ(log.self_ns(root), 50);
  EXPECT_EQ(log.self_ns(child), 20);
  EXPECT_EQ(log.self_ns(grand), 30);
}

TEST(SpanLog, AggregateChildrenSubtractTheirSum) {
  SpanLog log;
  const int run = log.begin("run", -1, 0);
  log.end(run, 1000);
  log.add_aggregate("cc", run, 250, 100);
  EXPECT_EQ(log.self_ns(run), 750);
  const auto totals = log.totals();
  EXPECT_EQ(totals.at("cc").calls, 100u);
  EXPECT_EQ(totals.at("cc").self_ns, 250);
  EXPECT_EQ(totals.at("run").self_ns, 750);
  EXPECT_EQ(totals.at("run").total_ns, 1000);
}

TEST(SpanLog, SelfTimeNeverNegative) {
  SpanLog log;
  const int run = log.begin("run", -1, 0);
  log.end(run, 100);
  log.add_aggregate("cc", run, 500, 1);
  EXPECT_EQ(log.self_ns(run), 0);
}

fx::DatacenterResult sample_result() {
  fx::DatacenterResult r;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    fastcc::stats::FlowRecord f;
    f.id = id;
    f.size_bytes = 1000 * id;
    f.start_time = 10 * id;
    f.fct = 500 + id;
    f.ideal_fct = 400;
    r.flows.push_back(f);
  }
  r.events_executed = 1234;
  return r;
}

std::vector<fastcc::net::FlowSpec> inputs_of(const fx::DatacenterResult& r) {
  std::vector<fastcc::net::FlowSpec> in;
  for (const auto& f : r.flows) {
    fastcc::net::FlowSpec s;
    s.id = f.id;
    s.size_bytes = f.size_bytes;
    in.push_back(s);
  }
  return in;
}

TEST(Digest, StableUnderCompletionOrder) {
  const fx::DatacenterResult a = sample_result();
  fx::DatacenterResult b = a;
  std::reverse(b.flows.begin(), b.flows.end());
  EXPECT_EQ(digest_of(a), digest_of(b));
  EXPECT_EQ(digest_of(a), digest_of(sample_result()));
}

TEST(Digest, ChangesWithAnyRecordedField) {
  const std::uint64_t base = digest_of(sample_result());
  fx::DatacenterResult r = sample_result();
  r.flows[2].fct += 1;
  EXPECT_NE(digest_of(r), base);
  r = sample_result();
  r.drops = 1;
  EXPECT_NE(digest_of(r), base);
  r = sample_result();
  r.events_executed += 1;
  EXPECT_NE(digest_of(r), base);
  r = sample_result();
  r.flows.pop_back();
  EXPECT_NE(digest_of(r), base);
}

TEST(Digest, PinnedValue) {
  // FNV-1a of the empty input and of one zero word, so the hash cannot
  // drift silently between builds.
  EXPECT_EQ(Digest().value(), 14695981039346656037ull);
  EXPECT_EQ(Digest().add(0).value(), 0xa8c7f832281a39c5ull);
}

TEST(CheckDatacenter, CleanRunHasNoFailures) {
  const fx::DatacenterResult r = sample_result();
  const FailureCount c = check_datacenter(inputs_of(r), r);
  EXPECT_EQ(c.attempted, 5u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.frac(), 0.0);
}

TEST(CheckDatacenter, CountsEachBadFlow) {
  const fx::DatacenterResult good = sample_result();
  const auto in = inputs_of(good);
  fx::DatacenterResult r = good;
  r.flows.erase(r.flows.begin());          // flow 1 unfinished
  r.flows.push_back(r.flows.front());      // flow 2 completes twice
  r.flows[2].fct = 100;                    // flow 4: slowdown < 1
  r.flows[3].size_bytes += 1;              // flow 5: wrong size
  fastcc::stats::FlowRecord stranger = good.flows.front();
  stranger.id = 99;                        // never input
  r.flows.push_back(stranger);
  const FailureCount c = check_datacenter(in, r);
  EXPECT_EQ(c.attempted, 5u);
  EXPECT_EQ(c.failed, 5u);  // flows 1, 2, 4, 5 and the stranger
  EXPECT_DOUBLE_EQ(c.frac(), 1.0);
}

TEST(CheckDatacenter, DropsOrUndrainedRunFailEveryFlow) {
  fx::DatacenterResult r = sample_result();
  const auto in = inputs_of(r);
  EXPECT_EQ(check_datacenter(in, r, /*run_ok=*/false).failed, 5u);
  r.drops = 1;
  EXPECT_EQ(check_datacenter(in, r).failed, 5u);
}

TEST(CheckIncast, OneAttemptPerExperiment) {
  fx::IncastResult r;
  for (std::uint32_t id = 1; id <= 3; ++id) r.flows.push_back({id, 0, 100});
  EXPECT_EQ(check_incast(3, r).failed, 0u);
  EXPECT_EQ(check_incast(3, r).attempted, 1u);
  EXPECT_EQ(check_incast(4, r).failed, 1u);  // a flow never finished
  fx::IncastResult dup = r;
  dup.flows[2].id = 2;
  EXPECT_EQ(check_incast(3, dup).failed, 1u);
  r.drops = 2;
  EXPECT_EQ(check_incast(3, r).failed, 1u);
}

TEST(FailureCount, FracAccumulates) {
  FailureCount total;
  EXPECT_EQ(total.frac(), 0.0);
  total += FailureCount{100, 0};
  total += FailureCount{100, 5};
  EXPECT_EQ(total.attempted, 200u);
  EXPECT_DOUBLE_EQ(total.frac(), 0.025);
}

}  // namespace
}  // namespace fcbench
