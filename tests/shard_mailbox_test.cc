// ShardMailboxes protocol: per-(src, dst) sequence stamping, publish
// ordering (nothing is visible to the reader before the barrier's
// publish()), the canonical (arrival, src shard, seq) injection order the
// drain keys sort into, both publish paths (swap into an empty ready cell,
// append behind a skipped destination's records), and cell reuse across
// epochs.  These are the invariants fastcc-shardsafe checks statically;
// this test pins them dynamically.
#include "net/shard.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.h"

namespace fastcc::net {
namespace {

/// Fills a reserved record the way export_release would: a fresh header
/// for `flow` and `ints` populated INT records derived from the flow id.
void deposit(ShardMailboxes& mb, int src, int dst, FlowId flow,
             sim::Time arrival, int ints = 0) {
  Packet& p = mb.put(src, dst, arrival, /*dst_node=*/1, /*dst_port=*/0).pkt;
  p.reset_header();
  init_data(p, flow, /*src=*/0, /*dst=*/1, /*seq=*/0, /*payload=*/100,
            /*now=*/0);
  for (int h = 0; h < ints; ++h) {
    IntRecord rec;
    rec.timestamp = flow * 100 + h;
    rec.tx_bytes = flow;
    rec.qlen_bytes = static_cast<std::uint32_t>(h);
    rec.bandwidth = 12.5;
    p.push_int(rec);
  }
}

struct Drained {
  FlowId flow;
  sim::Time arrival;
  int src;
  std::uint64_t seq;
  int int_count;
};

/// Drains shard `dst` the way the sharded runner does: keys in injection
/// order, read each record in place, then clear the column.
std::vector<Drained> drain(ShardMailboxes& mb, int dst) {
  std::vector<DrainKey> keys;
  mb.order_ready(dst, keys);
  std::vector<Drained> out;
  for (const DrainKey& key : keys) {
    const CrossShardPacket& rec = *key.rec;
    out.push_back({rec.pkt.flow, rec.arrival, rec.src_shard, rec.seq,
                   rec.pkt.int_count});
    for (int h = 0; h < rec.pkt.int_count; ++h) {
      EXPECT_EQ(rec.pkt.ints[h].timestamp,
                static_cast<sim::Time>(rec.pkt.flow * 100 + h));
      EXPECT_EQ(rec.pkt.ints[h].tx_bytes, rec.pkt.flow);
    }
  }
  mb.clear_ready(dst);
  return out;
}

std::vector<FlowId> flows_of(const std::vector<Drained>& recs) {
  std::vector<FlowId> out;
  for (const Drained& r : recs) out.push_back(r.flow);
  return out;
}

TEST(ShardMailboxes, NothingVisibleBeforePublish) {
  ShardMailboxes mb(3);
  EXPECT_TRUE(mb.all_empty());

  deposit(mb, 0, 1, 10, 100);
  EXPECT_FALSE(mb.all_empty());

  EXPECT_TRUE(drain(mb, 1).empty())
      << "pending transfers leaked past the barrier";

  mb.publish();
  const std::vector<Drained> inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].flow, 10u);
  EXPECT_TRUE(mb.all_empty());
}

TEST(ShardMailboxes, SequenceNumbersArePerShardPair) {
  ShardMailboxes mb(3);
  // Interleave deposits to two destinations; each (src, dst) pair keeps its
  // own counter, so neither stream perturbs the other's stamps.
  deposit(mb, 0, 1, 1, 100);
  deposit(mb, 0, 2, 2, 100);
  deposit(mb, 0, 1, 3, 100);
  deposit(mb, 2, 1, 4, 100);
  deposit(mb, 0, 2, 5, 100);
  mb.publish();

  const std::vector<Drained> to1 = drain(mb, 1);
  ASSERT_EQ(to1.size(), 3u);
  // Equal arrivals: src 0's transfers first, then src 2's.
  EXPECT_EQ(flows_of(to1), (std::vector<FlowId>{1, 3, 4}));
  EXPECT_EQ(to1[0].seq, 0u);
  EXPECT_EQ(to1[1].seq, 1u);
  EXPECT_EQ(to1[2].seq, 0u);  // (2, 1) counts independently of (0, 1)
  EXPECT_EQ(to1[0].src, 0);
  EXPECT_EQ(to1[2].src, 2);

  const std::vector<Drained> to2 = drain(mb, 2);
  ASSERT_EQ(to2.size(), 2u);
  EXPECT_EQ(flows_of(to2), (std::vector<FlowId>{2, 5}));
  EXPECT_EQ(to2[0].seq, 0u);
  EXPECT_EQ(to2[1].seq, 1u);
}

TEST(ShardMailboxes, CanonicalInjectionOrderIsDeterministic) {
  // Adversarial multi-source deposit pattern: equal arrivals from different
  // shards, out-of-order arrivals within a shard, and ties broken only by
  // (arrival, src shard, seq) — the order order_ready() hands the sharded
  // runner's inject_inbox.
  ShardMailboxes mb(4);
  deposit(mb, 2, 0, 20, 500);
  deposit(mb, 2, 0, 21, 300);
  deposit(mb, 1, 0, 10, 500);
  deposit(mb, 3, 0, 30, 300);
  deposit(mb, 1, 0, 11, 300);
  mb.publish();

  const std::vector<Drained> inbox = drain(mb, 0);
  ASSERT_EQ(inbox.size(), 5u);
  // arrival 300: src 1 before src 2 before src 3; arrival 500: src 1
  // before src 2.  Flow ids encode the deposit, so the order is total.
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{11, 21, 30, 10, 20}));
}

TEST(ShardMailboxes, CellsAreReusedAcrossEpochs) {
  ShardMailboxes mb(2);

  // Epoch 1.
  deposit(mb, 0, 1, 1, 100, /*ints=*/kMaxHops);
  mb.publish();
  std::vector<Drained> inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].seq, 0u);
  EXPECT_TRUE(mb.all_empty());

  // Epoch 2: the same (src, dst) cell carries fresh transfers; the drained
  // ready cell must not replay epoch 1's records, and the pair's sequence
  // counter keeps counting (it is a lifetime transfer count, which is what
  // makes (arrival, src, seq) a total order across epochs).  Recycled
  // records must not leak the earlier INT stack either.
  deposit(mb, 0, 1, 2, 200);
  deposit(mb, 0, 1, 3, 200, /*ints=*/2);
  EXPECT_TRUE(drain(mb, 1).empty()) << "epoch 2 pending visible before publish";
  mb.publish();
  inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{2, 3}));
  EXPECT_EQ(inbox[0].seq, 1u);
  EXPECT_EQ(inbox[1].seq, 2u);
  EXPECT_EQ(inbox[0].int_count, 0);
  EXPECT_EQ(inbox[1].int_count, 2);

  EXPECT_TRUE(mb.all_empty());
  EXPECT_EQ(mb.total_transfers(), 3u);
}

TEST(ShardMailboxes, TotalTransfersCountsAllPairs) {
  ShardMailboxes mb(3);
  deposit(mb, 0, 1, 1, 10);
  deposit(mb, 1, 2, 2, 10);
  deposit(mb, 2, 0, 3, 10);
  deposit(mb, 0, 2, 4, 10);
  EXPECT_EQ(mb.total_transfers(), 4u);
  mb.publish();
  EXPECT_EQ(mb.total_transfers(), 4u);  // publish moves, never re-counts
  for (int d = 0; d < 3; ++d) drain(mb, d);
  EXPECT_TRUE(mb.all_empty());
  EXPECT_EQ(mb.total_transfers(), 4u);
}

// Differential test against a reference model: random deposits over 4-8
// shards with random skip patterns.  Every drain must yield exactly the
// published-but-undrained records, in a reference sort by (arrival, src,
// seq), with intact INT prefixes; the release horizons must equal the
// reference minima after every publish.  The runs must exercise both
// publish paths: a swap into an empty ready cell, and an append behind
// records a skipped destination still holds.
TEST(ShardMailboxes, RandomDepositsDrainInReferenceOrder) {
  int swaps = 0;
  int appends = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::mt19937_64 rng(seed);
    const int shards = 4 + static_cast<int>(seed % 5);
    const auto cells = static_cast<std::size_t>(shards * shards);
    ShardMailboxes mb(shards);
    std::vector<std::uint64_t> seq(cells, 0);
    std::vector<std::vector<Drained>> pending(cells);
    std::vector<std::vector<Drained>> ready(cells);
    FlowId next_flow = 1;

    for (int epoch = 0; epoch < 30; ++epoch) {
      const int deposits = static_cast<int>(rng() % 48);
      for (int i = 0; i < deposits; ++i) {
        const int src = static_cast<int>(rng() % shards);
        int dst = static_cast<int>(rng() % (shards - 1));
        if (dst >= src) ++dst;
        // A narrow arrival window forces ties across sources and within
        // one source.
        const sim::Time arrival = epoch * 100 + static_cast<sim::Time>(rng() % 40);
        const int ints = static_cast<int>(rng() % (kMaxHops + 1));
        const std::size_t c = static_cast<std::size_t>(src * shards + dst);
        deposit(mb, src, dst, next_flow, arrival, ints);
        pending[c].push_back({next_flow, arrival, src, seq[c]++, ints});
        ++next_flow;
      }
      for (std::size_t c = 0; c < cells; ++c) {
        if (pending[c].empty()) continue;
        (ready[c].empty() ? swaps : appends) += 1;
        ready[c].insert(ready[c].end(), pending[c].begin(), pending[c].end());
        pending[c].clear();
      }
      mb.publish();

      for (int dst = 0; dst < shards; ++dst) {
        sim::Time earliest = sim::kMaxTime;
        for (int src = 0; src < shards; ++src) {
          sim::Time cell_min = sim::kMaxTime;
          for (const Drained& d : ready[static_cast<std::size_t>(src * shards + dst)]) {
            cell_min = std::min(cell_min, d.arrival);
          }
          EXPECT_EQ(mb.ready_release(src, dst), cell_min)
              << "seed " << seed << " epoch " << epoch;
          earliest = std::min(earliest, cell_min);
        }
        ASSERT_EQ(mb.earliest_ready(dst), earliest)
            << "seed " << seed << " epoch " << epoch << " dst " << dst;
      }

      for (int dst = 0; dst < shards; ++dst) {
        if (rng() % 3 == 0) continue;  // skipped: records stay published
        std::vector<Drained> expected;
        for (int src = 0; src < shards; ++src) {
          auto& cell = ready[static_cast<std::size_t>(src * shards + dst)];
          expected.insert(expected.end(), cell.begin(), cell.end());
          cell.clear();
        }
        std::sort(expected.begin(), expected.end(),
                  [](const Drained& a, const Drained& b) {
                    return std::tie(a.arrival, a.src, a.seq) <
                           std::tie(b.arrival, b.src, b.seq);
                  });
        const std::vector<Drained> got = drain(mb, dst);
        ASSERT_EQ(flows_of(got), flows_of(expected))
            << "seed " << seed << " epoch " << epoch << " dst " << dst;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].seq, expected[i].seq);
          EXPECT_EQ(got[i].int_count, expected[i].int_count);
        }
        EXPECT_EQ(mb.earliest_ready(dst), sim::kMaxTime);
      }
    }
  }
  EXPECT_GT(swaps, 0) << "no publish took the swap path";
  EXPECT_GT(appends, 0) << "no publish took the append path";
}

TEST(ShardMailboxes, ArrivalAtTheShardClockPasses) {
  check_arrival_not_past(/*shard=*/3, /*arrival=*/1000, /*now=*/1000);
  check_arrival_not_past(/*shard=*/3, /*arrival=*/1001, /*now=*/1000);
}

TEST(ShardMailboxesDeathTest, ArrivalBeforeShardClockAborts) {
  // Always on, including optimized builds: the message names the shard and
  // both instants.
  EXPECT_DEATH(check_arrival_not_past(/*shard=*/3, /*arrival=*/900,
                                      /*now=*/1000),
               "shard 3 arrives at 900 ns.*clock at 1000 ns");
}

TEST(ShardLookahead, ClosureBoundsIndirectPairs) {
  // 0 -> 1 (2us), 1 -> 2 (3us), 2 -> 0 (10us); no direct 0 -> 2 link.
  // Without the seal() path closure, shard 2 would see no constraint from
  // shard 0 at all and run ahead of a two-hop influence; with it,
  // between(0, 2) is the shortest path sum and the matrix satisfies the
  // triangle inequality the conservative-horizon argument needs.
  ShardLookahead la(3);
  la.observe_link(0, 1, 2000);
  la.observe_link(1, 2, 3000);
  la.observe_link(2, 0, 10000);
  la.seal();
  EXPECT_EQ(la.between(0, 0), 0);
  EXPECT_EQ(la.between(0, 1), 2000);
  EXPECT_EQ(la.between(0, 2), 5000);   // 0 -> 1 -> 2
  EXPECT_EQ(la.between(1, 0), 13000);  // 1 -> 2 -> 0
  EXPECT_EQ(la.min_window(), 2000);
  EXPECT_EQ(la.max_window(), 13000);   // the 1 -> 0 back-path is longest
}

TEST(ShardLookahead, KeepsMinimumParallelLinkAndMarksUnreachable) {
  ShardLookahead la(3);
  la.observe_link(0, 1, 5000);
  la.observe_link(0, 1, 1000);  // parallel link: min wins
  la.observe_link(1, 0, 4000);
  la.seal();
  EXPECT_EQ(la.between(0, 1), 1000);
  EXPECT_EQ(la.between(1, 0), 4000);
  // Shard 2 has no links at all: unreachable both ways, and the window
  // fold must skip those pairs rather than poison min/max.
  EXPECT_EQ(la.between(0, 2), ShardLookahead::kUnreachable);
  EXPECT_EQ(la.between(2, 0), ShardLookahead::kUnreachable);
  EXPECT_EQ(la.min_window(), 1000);
  EXPECT_EQ(la.max_window(), 4000);  // the folded-away 5000 must not surface
}

TEST(ShardMailboxes, ReleaseHorizonTracksEarliestUndrainedArrival) {
  // The planner sizes epoch horizons from ready_release()/earliest_ready()
  // instead of peeking at records; the horizon must therefore be exactly
  // the min arrival over the published-but-undrained cells — and nothing
  // pending may leak into it before the barrier.
  ShardMailboxes mb(3);
  EXPECT_EQ(mb.earliest_ready(1), sim::kMaxTime);
  deposit(mb, 0, 1, 1, 500);
  deposit(mb, 2, 1, 2, 300);
  EXPECT_EQ(mb.earliest_ready(1), sim::kMaxTime)
      << "pending deposits visible to the planner before publish";
  mb.publish();
  EXPECT_EQ(mb.ready_release(0, 1), 500);
  EXPECT_EQ(mb.ready_release(2, 1), 300);
  EXPECT_EQ(mb.ready_release(1, 1), sim::kMaxTime);  // empty cell
  EXPECT_EQ(mb.earliest_ready(1), 300);
  EXPECT_EQ(mb.earliest_ready(0), sim::kMaxTime);
}

TEST(ShardMailboxes, ReleaseHorizonSurvivesSkippedEpochs) {
  // An idle destination skips epochs without draining: its records stay
  // published, the horizon carries over publish() no-ops, and later
  // transfers min-fold into it.  Only the owning reader's clear_ready()
  // resets the cell.
  ShardMailboxes mb(2);
  deposit(mb, 0, 1, 1, 700);
  mb.publish();
  EXPECT_EQ(mb.earliest_ready(1), 700);
  mb.publish();  // skipped epoch: nothing pending, horizon intact
  EXPECT_EQ(mb.earliest_ready(1), 700);
  deposit(mb, 0, 1, 2, 400);
  mb.publish();
  EXPECT_EQ(mb.earliest_ready(1), 400);
  EXPECT_FALSE(mb.all_empty()) << "retained records must still count";

  const std::vector<Drained> inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 2u);
  // The appended record arrives first, so it is injected first.
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{2, 1}));
  EXPECT_EQ(mb.earliest_ready(1), sim::kMaxTime) << "drain must reset";
  EXPECT_TRUE(mb.all_empty());
  deposit(mb, 0, 1, 3, 900);
  mb.publish();
  EXPECT_EQ(mb.earliest_ready(1), 900) << "horizon re-derives after reuse";
}

}  // namespace
}  // namespace fastcc::net
