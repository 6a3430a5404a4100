// Property suite for the differential-testing harness (src/incr/check/):
// the differ runs clean on generated (query, stream) pairs, the metamorphic
// laws the engine layer documents actually hold, an injected sign-flip bug
// is caught and shrunk to a tiny repro, the snapshot-isolation pass runs
// clean (and catches an injected torn publish), and .repro files
// round-trip.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/check/differ.h"
#include "incr/check/oracle.h"
#include "incr/check/qgen.h"
#include "incr/check/repro.h"
#include "incr/check/shrink.h"
#include "incr/check/wgen.h"
#include "incr/engines/durable_engine.h"
#include "incr/engines/engine.h"
#include "incr/query/parser.h"
#include "incr/ring/bool_semiring.h"
#include "incr/ring/int_ring.h"
#include "incr/store/recover.h"
#include "incr/util/rng.h"

namespace incr {
namespace check {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "check_" + name;
  INCR_CHECK(store::EnsureDir(dir).ok());
  std::remove(store::WalPath(dir).c_str());
  std::remove(store::SnapshotPath(dir).c_str());
  return dir;
}

DifferOptions Opts(const std::string& scratch, uint64_t seed) {
  DifferOptions opts;
  opts.scratch_dir = scratch;
  opts.seed = seed;
  opts.check_every = 25;
  return opts;
}

// A (query, stream) pair sampled exactly like fuzz_ivm does for `seed`.
struct Sample {
  GenQuery q;
  Stream stream;
  Dictionary dict;  // generation-side dictionary (when churn is on)
};

Sample MakeSample(uint64_t seed, size_t ops) {
  Sample s;
  Rng rng(seed);
  s.q = GenerateQuery(rng, QGenOptions{});
  WGenOptions w;
  w.ops = ops;
  w.insert_only = (seed % 4 == 3);
  if (seed % 2 == 0) w.dict = &s.dict;
  s.stream = GenerateStream(rng, s.q, w);
  return s;
}

void ApplyStep(IvmEngine<IntRing>& e, const StreamStep& s, bool batch_mode) {
  if (s.is_batch && batch_mode) {
    e.ApplyBatch(std::span<const Delta<IntRing>>(s.deltas));
    return;
  }
  for (const Delta<IntRing>& d : s.deltas) e.Update(d.relation, d.tuple, d.delta);
}

std::unique_ptr<ViewTreeEngine<IntRing>> MakeTreeEngine(const GenQuery& q) {
  auto tree = ViewTree<IntRing>::Make(q.query, q.vo);
  INCR_CHECK(tree.ok());
  return std::make_unique<ViewTreeEngine<IntRing>>(*std::move(tree));
}

std::string DumpBytes(IvmEngine<IntRing>& e) {
  store::ByteWriter w;
  Status st = e.DumpState(w);
  EXPECT_TRUE(st.ok()) << st.message();
  return w.Take();
}

// ----------------------------------------------------------------------
// The differ itself runs clean on generated pairs: every compatible engine
// agrees with the oracle and with its dump group, and both durability
// passes recover bit-identical state.

TEST(CheckDifferTest, CleanOnGeneratedSeeds) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Sample s = MakeSample(seed, 100);
    DiffResult r = RunDiffer(s.q, s.stream,
                             Opts(FreshDir("clean"), seed));
    EXPECT_TRUE(r.ok) << "seed " << seed << " query " << s.q.text << "\n"
                      << r.Summary();
    EXPECT_GE(r.variants, 8u);
    EXPECT_GT(r.oracle_checks, 0u);
  }
}

TEST(CheckDifferTest, GeneratedStreamsKeepMultisetContract) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Sample s = MakeSample(seed, 150);
    EXPECT_TRUE(StreamIsNonNegative(s.stream)) << "seed " << seed;
  }
}

// ----------------------------------------------------------------------
// Metamorphic laws.

// Batch application and per-delta application of the same stream reach the
// same output (they are distinct dump groups — merged batches legitimately
// build state in a different order — so the law is semantic, not bitwise).
TEST(CheckMetamorphicTest, BatchEqualsSequentialApplication) {
  for (uint64_t seed = 20; seed < 24; ++seed) {
    Sample s = MakeSample(seed, 120);
    auto batched = MakeTreeEngine(s.q);
    auto sequential = MakeTreeEngine(s.q);
    for (const StreamStep& st : s.stream.steps) {
      ApplyStep(*batched, st, /*batch_mode=*/true);
      ApplyStep(*sequential, st, /*batch_mode=*/false);
    }
    const Schema out = batched->tree().OutputSchema();
    auto want = OracleOutput<IntRing>(s.q.query, s.stream,
                                      [](int64_t d) { return d; });
    EXPECT_EQ(ProjectedOutput(*batched, out, s.q.query.free()), want)
        << "seed " << seed;
    EXPECT_EQ(ProjectedOutput(*sequential, out, s.q.query.free()), want)
        << "seed " << seed;
  }
}

// The parallel batch path is thread-count invariant: any two thread counts
// produce byte-identical serialized state.
TEST(CheckMetamorphicTest, ThreadCountInvariance) {
  for (uint64_t seed = 30; seed < 33; ++seed) {
    Sample s = MakeSample(seed, 120);
    auto t2 = MakeTreeEngine(s.q);
    auto t4 = MakeTreeEngine(s.q);
    EngineOptions o2;
    o2.threads = 2;
    EngineOptions o4;
    o4.threads = 4;
    t2->Configure(o2);
    t4->Configure(o4);
    for (const StreamStep& st : s.stream.steps) {
      ApplyStep(*t2, st, /*batch_mode=*/true);
      ApplyStep(*t4, st, /*batch_mode=*/true);
    }
    EXPECT_EQ(DumpBytes(*t2), DumpBytes(*t4)) << "seed " << seed;
  }
}

// Checkpoint + recover is idempotent: recovering reproduces the live state
// byte-for-byte, and recovering again from the recovered files changes
// nothing further.
TEST(CheckMetamorphicTest, CheckpointRecoverIdempotent) {
  Sample s = MakeSample(21, 120);  // odd seed: no dictionary churn
  const std::string dir = FreshDir("idem");
  EngineOptions opts;
  opts.durability_dir = dir;
  opts.fsync = false;

  auto live = DurableEngine<IntRing>::Open(MakeTreeEngine(s.q), opts, nullptr);
  ASSERT_TRUE(live.ok()) << live.status().message();
  for (size_t i = 0; i < s.stream.steps.size(); ++i) {
    ApplyStep(**live, s.stream.steps[i], /*batch_mode=*/true);
    if (i == s.stream.steps.size() / 2) {
      ASSERT_TRUE((*live)->Checkpoint().ok());
    }
  }
  ASSERT_TRUE((*live)->Sync().ok());
  const std::string want = DumpBytes(**live);
  live->reset();

  for (int round = 0; round < 2; ++round) {
    auto rec = DurableEngine<IntRing>::Open(MakeTreeEngine(s.q), opts, nullptr);
    ASSERT_TRUE(rec.ok()) << rec.status().message();
    EXPECT_EQ(DumpBytes(**rec), want) << "recovery round " << round;
    rec->reset();
  }
}

// On insert-only streams, evaluating over Z and collapsing to support
// equals evaluating over the Boolean semiring directly: multiplicity
// erasure is a (semi)ring homomorphism, and with no deletes no Boolean
// information is lost to cancellation.
TEST(CheckMetamorphicTest, ZToBoolHomomorphismOnInsertOnlyStreams) {
  for (uint64_t seed = 3; seed < 20; seed += 4) {  // seeds with insert_only
    Sample s = MakeSample(seed, 120);
    ASSERT_TRUE(s.stream.insert_only);
    auto z = OracleOutput<IntRing>(s.q.query, s.stream,
                                   [](int64_t d) { return d; });
    auto b = OracleOutput<BoolSemiring>(s.q.query, s.stream,
                                        [](int64_t d) { return d > 0; });
    std::map<Tuple, bool> support;
    for (const auto& [t, v] : z) {
      if (v != 0) support.emplace(t, true);
    }
    EXPECT_EQ(support, b) << "seed " << seed << " query " << s.q.text;
  }
}

// ----------------------------------------------------------------------
// Fault injection: a deliberately buggy engine must be caught, and the
// shrinker must cut the failure down to a tiny replayable repro.

// Sign-flip bug: deletes are applied as inserts. Correct on insert-only
// prefixes, wrong from the first retraction onward.
class SignFlipEngine : public IvmEngine<IntRing> {
 public:
  explicit SignFlipEngine(ViewTree<IntRing> tree)
      : inner_(std::move(tree)) {}

  const char* name() const override { return "buggy-sign-flip"; }

  ViewTreeEngine<IntRing>& inner() { return inner_; }

 protected:
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& d) override {
    inner_.Update(rel, t, d < 0 ? -d : d);
  }

  size_t EnumerateImpl(const Sink& sink) override {
    return inner_.Enumerate(sink);
  }

 private:
  ViewTreeEngine<IntRing> inner_;
};

TEST(CheckShrinkTest, InjectedSignFlipIsCaughtAndShrunk) {
  Sample s = MakeSample(1, 60);  // odd seed: deletes, no dictionary
  ASSERT_FALSE(s.stream.insert_only);

  DifferOptions opts = Opts(FreshDir("signflip"), 1);
  opts.durable = false;  // the bug is in live maintenance; keep probes fast
  opts.extra.push_back([](const GenQuery& q, const Stream&) {
    std::vector<EngineVariant> out;
    EngineVariant v;
    v.label = "buggy-sign-flip";
    auto tree = ViewTree<IntRing>::Make(q.query, q.vo);
    INCR_CHECK(tree.ok());
    v.out_schema = tree->OutputSchema();
    v.make = [&q]() -> std::unique_ptr<IvmEngine<IntRing>> {
      auto t = ViewTree<IntRing>::Make(q.query, q.vo);
      INCR_CHECK(t.ok());
      return std::make_unique<SignFlipEngine>(*std::move(t));
    };
    out.push_back(std::move(v));
    return out;
  });

  DiffResult verdict = RunDiffer(s.q, s.stream, opts);
  ASSERT_FALSE(verdict.ok) << "sign-flip bug not detected";
  bool blamed = false;
  for (const DiffFailure& f : verdict.failures) {
    if (f.label == "buggy-sign-flip") blamed = true;
  }
  EXPECT_TRUE(blamed) << verdict.Summary();

  ShrinkResult shrunk = Shrink(s.q, s.stream, opts);
  EXPECT_FALSE(shrunk.failure.ok);
  EXPECT_LE(shrunk.stream.NumDeltas(), 5u)
      << "shrinker left " << shrunk.stream.NumDeltas() << " deltas";
  EXPECT_TRUE(StreamIsNonNegative(shrunk.stream));
  // The minimized stream must still contain the retraction that triggers
  // the sign flip.
  bool has_delete = false;
  for (const StreamStep& st : shrunk.stream.steps) {
    for (const Delta<IntRing>& d : st.deltas) {
      if (d.delta < 0) has_delete = true;
    }
  }
  EXPECT_TRUE(has_delete);

  // The minimized pair replays through the .repro format.
  std::string text = RenderRepro(shrunk.query, shrunk.stream, 1);
  auto repro = ParseRepro(text);
  ASSERT_TRUE(repro.ok()) << repro.status().message();
  DiffResult replay = RunDiffer(repro->query, repro->stream, opts);
  EXPECT_FALSE(replay.ok) << "repro does not reproduce the failure";
}

// ----------------------------------------------------------------------
// Snapshot-isolation pass (tier 4): reader threads on a live
// snapshot-enabled engine, checked against the sequential ledger.

TEST(CheckConcurrentTest, SnapshotPassCleanOnGeneratedSeeds) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Sample s = MakeSample(seed, 80);
    DifferOptions opts = Opts(FreshDir("conc"), seed);
    opts.durable = false;  // exercise the concurrent pass in isolation
    opts.readers = 2;
    DiffResult r = RunDiffer(s.q, s.stream, opts);
    EXPECT_TRUE(r.ok) << "seed " << seed << "\n" << r.Summary();
  }
}

TEST(CheckConcurrentTest, SequentialSnapshotPassDumpsTheLedgerState) {
  // One maintenance thread: the pass also requires the snapshot engine to
  // end in the ledger's exact bytes. Odd seeds retain 2 epochs, so
  // readers' pins make the maintainer wait at the start of a batch.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Sample s = MakeSample(seed, 80);
    DifferOptions opts = Opts(FreshDir("conc1"), seed);
    opts.durable = false;
    opts.builtin = false;  // tiers 1-3 are not under test here
    opts.sql = false;
    opts.threads = 1;
    opts.readers = 2;
    DiffResult r = RunDiffer(s.q, s.stream, opts);
    EXPECT_TRUE(r.ok) << "seed " << seed << "\n" << r.Summary();
  }
}

TEST(CheckConcurrentTest, InjectedTornPublishIsCaught) {
  // Find a generated pair whose plan enumerates and whose stream has a
  // multi-delta step — the injection splits that step into two publishes.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Sample s = MakeSample(seed, 80);
    if (!MakeTreeEngine(s.q)->tree().plan().CanEnumerate().ok()) continue;
    size_t torn = SIZE_MAX;
    size_t idx = 0;  // index among NON-EMPTY steps, the differ's numbering
    for (const StreamStep& st : s.stream.steps) {
      if (st.deltas.empty()) continue;
      if (st.deltas.size() >= 2) {
        torn = idx;
        break;
      }
      ++idx;
    }
    if (torn == SIZE_MAX) continue;

    DifferOptions opts = Opts(FreshDir("torn"), seed);
    opts.durable = false;
    opts.builtin = false;  // tiers 1-3 are not under test here
    opts.readers = 2;
    opts.inject_torn_step = torn;
    DiffResult r = RunDiffer(s.q, s.stream, opts);
    ASSERT_FALSE(r.ok) << "seed " << seed
                       << ": torn publish went undetected";
    bool concurrent_blamed = false;
    for (const DiffFailure& f : r.failures) {
      if (f.label.rfind("concurrent:", 0) == 0) concurrent_blamed = true;
    }
    EXPECT_TRUE(concurrent_blamed) << r.Summary();
    return;
  }
  FAIL() << "no enumerable sample with a multi-delta step in seeds 0..9";
}

// ----------------------------------------------------------------------
// Repro format.

TEST(CheckReproTest, RenderParseRoundTrip) {
  for (uint64_t seed = 40; seed < 44; ++seed) {
    Sample s = MakeSample(seed, 30);
    std::string text = RenderRepro(s.q, s.stream, seed);
    auto repro = ParseRepro(text);
    ASSERT_TRUE(repro.ok()) << repro.status().message() << "\n" << text;
    EXPECT_EQ(repro->seed, seed);
    EXPECT_EQ(repro->query.text, s.q.text);
    EXPECT_EQ(repro->stream.insert_only, s.stream.insert_only);
    ASSERT_EQ(repro->stream.steps.size(), s.stream.steps.size());
    for (size_t i = 0; i < s.stream.steps.size(); ++i) {
      const StreamStep& a = s.stream.steps[i];
      const StreamStep& b = repro->stream.steps[i];
      EXPECT_EQ(a.is_batch, b.is_batch) << "step " << i;
      EXPECT_EQ(a.dict_grow, b.dict_grow) << "step " << i;
      ASSERT_EQ(a.deltas.size(), b.deltas.size()) << "step " << i;
      for (size_t j = 0; j < a.deltas.size(); ++j) {
        EXPECT_EQ(a.deltas[j].relation, b.deltas[j].relation);
        EXPECT_EQ(a.deltas[j].tuple, b.deltas[j].tuple);
        EXPECT_EQ(a.deltas[j].delta, b.deltas[j].delta);
      }
    }
    // Canonical: rendering the parse renders the same bytes.
    EXPECT_EQ(RenderRepro(repro->query, repro->stream, seed), text);
  }
}

TEST(CheckReproTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseRepro("").ok());
  EXPECT_FALSE(ParseRepro("# incr-fuzz repro v1\nseed 1\n").ok());
  // Delta for a relation the query does not mention.
  EXPECT_FALSE(ParseRepro("# incr-fuzz repro v1\n"
                          "seed 1\ninsert_only 0\n"
                          "query Q(A) = R(A)\n"
                          "step update\n  S (1) 1\n")
                   .ok());
  // Arity mismatch against the parsed query.
  EXPECT_FALSE(ParseRepro("# incr-fuzz repro v1\n"
                          "seed 1\ninsert_only 0\n"
                          "query Q(A) = R(A)\n"
                          "step update\n  R (1, 2) 1\n")
                   .ok());
  // `update` steps carry exactly one delta.
  EXPECT_FALSE(ParseRepro("# incr-fuzz repro v1\n"
                          "seed 1\ninsert_only 0\n"
                          "query Q(A) = R(A)\n"
                          "step update\n  R (1) 1\n  R (2) 1\n")
                   .ok());
}

// ----------------------------------------------------------------------
// SQL round-trip tier: the generated SQL rendering must lower to the same
// variable ids as the CQ parse (the differ then asserts byte-identical
// DumpState), a corrupted rendering is caught, and --no-sql gates the pass.

// A GenQuery with the derived fields recomputed from hand-written CQ text,
// plus a deterministic stream — the corruption tests then overwrite
// sql_text alone, so every other differ pass still runs clean.
Sample MakeSqlSample(const std::string& text, uint64_t seed) {
  Sample s;
  auto q = ParseQuery(text, &s.q.vars);
  INCR_CHECK(q.ok());
  s.q.query = *std::move(q);
  INCR_CHECK(FinalizeGenQuery(&s.q).ok());
  Rng rng(seed);
  WGenOptions w;
  w.ops = 60;
  s.stream = GenerateStream(rng, s.q, w);
  return s;
}

TEST(CheckSqlTierTest, TwinsAgreeOnGeneratedSeeds) {
  for (uint64_t seed = 40; seed < 46; ++seed) {
    Sample s = MakeSample(seed, 80);
    ASSERT_FALSE(s.q.sql_text.empty()) << "seed " << seed;
    DiffResult r = RunDiffer(s.q, s.stream, Opts(FreshDir("sqlclean"), seed));
    EXPECT_TRUE(r.ok) << "seed " << seed << " sql " << s.q.sql_text << "\n"
                      << r.Summary();
  }
}

TEST(CheckSqlTierTest, CorruptedSqlRenderingIsCaught) {
  Sample s = MakeSqlSample("Q(A, B) = R(A, B), S(B, C)", 7);
  // Sanity: the honest rendering passes.
  EXPECT_TRUE(RunDiffer(s.q, s.stream, Opts(FreshDir("sqlok"), 7)).ok);

  // Swap which columns are selected: the SQL twin now frees (A, C), so
  // its lowered atoms carry different variable ids than the CQ twin's.
  s.q.sql_text =
      "CREATE TABLE R (c0, c1);\n"
      "CREATE TABLE S (c0, c1);\n"
      "SELECT t0.c0 AS A, t1.c1 AS C, COUNT(*) "
      "FROM R AS t0, S AS t1 WHERE t0.c1 = t1.c0 "
      "GROUP BY t0.c0, t1.c1;";
  DiffResult r = RunDiffer(s.q, s.stream, Opts(FreshDir("sqlbad"), 7));
  ASSERT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_EQ(r.failures[0].label, "sql:twin");
  EXPECT_NE(r.failures[0].detail.find("mismatch"), std::string::npos)
      << r.failures[0].detail;
}

TEST(CheckSqlTierTest, UncompilableSqlRenderingIsCaught) {
  Sample s = MakeSqlSample("Q(A) = R(A, B)", 11);
  s.q.sql_text = "SELECT nope FROM";  // truncated: CompileSql must fail
  DiffResult r = RunDiffer(s.q, s.stream, Opts(FreshDir("sqlerr"), 11));
  ASSERT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_EQ(r.failures[0].label, "sql:twin");
  EXPECT_NE(r.failures[0].detail.find("CompileSql"), std::string::npos)
      << r.failures[0].detail;
}

TEST(CheckSqlTierTest, NoSqlOptionSkipsThePass) {
  Sample s = MakeSqlSample("Q(A) = R(A, B)", 11);
  s.q.sql_text = "SELECT nope FROM";
  DifferOptions opts = Opts(FreshDir("sqloff"), 11);
  opts.sql = false;
  EXPECT_TRUE(RunDiffer(s.q, s.stream, opts).ok);
}

}  // namespace
}  // namespace check
}  // namespace incr
