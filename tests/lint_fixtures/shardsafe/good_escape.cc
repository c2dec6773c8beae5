// fastcc-shardsafe fixture: the sanctioned cross-shard handoff.  Clean
// control for [shard-local-escape] — the pool handle is serialized through
// a FASTCC_CONSUMES_XSHARD call (the export_release idiom) before reaching
// the sink, or serialized straight into the record the sink reserves, and
// purely shard-local work never approaches the boundary.
//
// clean-shardsafe: shard-local-escape

class FASTCC_SHARD_LOCAL FixGoodPool {};

struct FixGoodRef {
  int idx = -1;
};

struct FixWire {
  int payload = 0;
};

FASTCC_XSHARD_SINK void fix_good_deposit(FixWire bytes, long long arrival);
FASTCC_PRODUCES FixGoodRef fix_good_alloc(FixGoodPool& pool);
FixWire fix_good_export(FixGoodPool& pool, FASTCC_CONSUMES_XSHARD FixGoodRef ref);
FASTCC_XSHARD_SINK FixWire& fix_good_reserve(long long arrival);
void fix_good_export_into(FixGoodPool& pool,
                          FASTCC_CONSUMES_XSHARD FixGoodRef ref, FixWire& into);
void fix_good_retire(FixGoodPool& pool, FASTCC_CONSUMES FixGoodRef ref);

struct FixGoodEgress {
  FASTCC_SHARD_LOCAL long long fix_good_queued_ = 0;

  FASTCC_SHARD_LOCAL void fix_good_forward(FixGoodPool& pool) {
    FixGoodRef ref = fix_good_alloc(pool);
    fix_good_deposit(fix_good_export(pool, ref), 7);
  }

  FASTCC_SHARD_LOCAL void fix_good_forward_in_place(FixGoodPool& pool) {
    FixGoodRef ref = fix_good_alloc(pool);
    fix_good_export_into(pool, ref, fix_good_reserve(7));
  }

  FASTCC_SHARD_LOCAL void fix_good_local_only(FixGoodPool& pool) {
    FixGoodRef ref = fix_good_alloc(pool);
    fix_good_retire(pool, ref);
    fix_good_queued_ += 1;
  }
};
