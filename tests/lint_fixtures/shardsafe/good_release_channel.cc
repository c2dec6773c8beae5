// fastcc-shardsafe fixture: the release-horizon channel protocol used as
// designed.  Clean control for [xshard-channel-phase] — the barrier-phase
// planner reads the published horizons to size epochs and pick the active
// set, while the owning reader resets its own column's horizon from worker
// phase as part of the drain.
//
// clean-shardsafe: xshard-channel-phase

class FASTCC_XSHARD_CHANNEL FixGoodHorizonBox {
 public:
  FASTCC_SHARD_LOCAL void fix_drain_resets(int dst) {
    // The owning reader resets its own column's horizon as part of the
    // drain, exactly like ShardMailboxes::clear_ready.
    // lint:allow(epoch-phase-write -- reader-owned release-horizon reset travels with the column drain)
    fix_horizon_[dst] = 0;
  }
  FASTCC_EPOCH_PUBLISH int fix_horizon_of(int dst) { return fix_horizon_[dst]; }
  FASTCC_EPOCH_PUBLISH int fix_earliest_horizon() {
    int lo = fix_horizon_[0];
    if (fix_horizon_[1] < lo) lo = fix_horizon_[1];
    return lo;
  }

 private:
  FASTCC_EPOCH_PUBLISH int fix_horizon_[2] = {0, 0};
};

struct FixGoodHorizonPlanner {
  FASTCC_EPOCH_PUBLISH int fix_barrier_plans(FixGoodHorizonBox& box) {
    return box.fix_earliest_horizon();
  }

  FASTCC_EPOCH_PUBLISH int fix_barrier_sizes_epoch(FixGoodHorizonBox& box,
                                                   int dst) {
    return box.fix_horizon_of(dst);
  }

  FASTCC_SHARD_LOCAL void fix_reader_drains(FixGoodHorizonBox& box, int dst) {
    box.fix_drain_resets(dst);
  }
};
