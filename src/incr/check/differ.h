// The differential driver: one (query, stream) pair is pushed through
// every compatible engine configuration, and all of them must agree — with
// the full-recompute oracle on output semantics, and with each other on
// serialized state bytes where the engines' documented guarantees promise
// bit-identity.
//
// Three comparison tiers, from semantic to bitwise:
//
//   1. Oracle equivalence: at a configurable step cadence (and always at
//      the end of the stream) each engine's enumerated output, projected
//      onto the query's free variables, must equal the oracle's full
//      recomputation. This is the universal check — every variant
//      participates, whatever its native output schema.
//
//   2. Dump groups: variants that perform the *identical* sequence of
//      view-tree operations (per the engine layer's documented
//      determinism guarantees: parallel batches are bit-identical to
//      sequential and thread-count invariant) share a dump-group tag, and
//      their DumpState byte streams must match exactly. Variants whose op
//      sequences legitimately differ (lazy flushes, per-tuple vs merged
//      application) stay ungrouped — DumpState is deterministic, not
//      canonical.
//
//   3. Durability: the stream is re-run through a durable (WAL-logging)
//      engine; full recovery must reproduce the live state byte-for-byte,
//      and recovery from a WAL truncated at a random byte ("kill at a
//      random LSN") must equal a fresh engine fed exactly the surviving
//      prefix of steps.
//
//   4. Snapshot isolation (opts.readers > 0): the stream is re-run through
//      a snapshot-enabled view-tree engine while reader threads enumerate
//      concurrently. Every observed snapshot must be bit-equal to the
//      oracle ledger at SOME published epoch (exactly one epoch per
//      applied step), and each reader's observed epochs must advance
//      monotonically — torn publishes surface as an epoch matching no
//      ledger entry or as mismatched content.
//
// Everything except tier 4's interleavings is deterministic in (query,
// stream, DifferOptions::seed) — and tier 4's *verdict* is deterministic
// too: any interleaving of a correct engine passes, any torn publish
// fails the final-epoch check even if no reader sampled it.
#ifndef INCR_CHECK_DIFFER_H_
#define INCR_CHECK_DIFFER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "incr/check/oracle.h"
#include "incr/check/qgen.h"
#include "incr/check/wgen.h"
#include "incr/engines/engine.h"
#include "incr/ring/int_ring.h"

namespace incr {
namespace check {

/// One engine configuration under test. `make` builds a fresh engine;
/// `out_schema` names the variables of its Enumerate() tuples (a superset
/// of the query's free variables; the differ projects). `batch_mode`
/// decides how batch steps are driven: ApplyBatch when set, per-delta
/// Update otherwise (single-update steps always go through Update).
struct EngineVariant {
  std::string label;
  std::function<std::unique_ptr<IvmEngine<IntRing>>()> make;
  Schema out_schema;
  bool batch_mode = false;
  /// Variants sharing a non-empty dump_group must produce byte-identical
  /// DumpState at the end of the stream.
  std::string dump_group;
};

struct DifferOptions {
  /// Compare every variant against the oracle after each `check_every`
  /// steps (0 = only at the end). The final state is always checked.
  size_t check_every = 16;
  /// Thread count for the parallel view-tree variant.
  size_t threads = 4;
  /// Morsel size (bytes of input deltas per work-stealing morsel) for the
  /// parallel variants and the snapshot/durability passes; 0 = the engine
  /// default. Independent of this knob, BuiltinVariants always adds one
  /// parallel variant at a deliberately tiny morsel size to the same
  /// byte-identity dump group — morsel scheduling must be invisible in
  /// serialized state, whatever the grid.
  size_t morsel_bytes = 0;
  /// Run the durable full-recovery and kill-at-random-LSN passes. Needs
  /// `scratch_dir`.
  bool durable = true;
  /// Run the SQL round-trip tier: the generated query's SQL rendering
  /// (GenQuery::sql_text) compiled through sql/CompileSql must build a
  /// view tree whose DumpState bytes are identical to the CQ-parsed
  /// twin's after every checkpoint of the stream — the "one query, two
  /// dialects, one state" property the SQL front door promises. A
  /// serve::Session fed the same SQL text and one BATCH per step must
  /// answer `ENUMERATE q0` with the SQL twin's rendered output at every
  /// checkpoint.
  bool sql = true;
  std::string scratch_dir;
  /// Seed for the differ's own randomness (checkpoint step, kill offset).
  uint64_t seed = 0;
  /// Include the built-in variant set (BuiltinVariants).
  bool builtin = true;
  /// Reader threads for the snapshot-isolation pass (tier 4); 0 skips the
  /// pass. Readers spin on Snapshot()+enumerate while the maintainer
  /// re-applies the stream one ApplyBatch (= one published epoch) per
  /// step, with opts.threads maintenance threads.
  size_t readers = 0;
  /// Bug-injection hook for the property tests: the step at this index
  /// (when it has >= 2 deltas) is deliberately torn into two ApplyBatch
  /// calls — two published epochs where the ledger expects one. A correct
  /// atomic-publication implementation cannot produce that history, so
  /// the snapshot-isolation pass must fail. SIZE_MAX = off.
  size_t inject_torn_step = SIZE_MAX;
  /// Extra variant factories, invoked with the current (query, stream) on
  /// every run — factories rather than prebuilt variants so the shrinker
  /// can rebuild them as it mutates the pair. The property tests inject
  /// deliberately buggy engines here and expect the differ to object.
  std::vector<std::function<std::vector<EngineVariant>(
      const GenQuery&, const Stream&)>>
      extra;
};

struct DiffFailure {
  std::string label;   // variant label, "dump:<group>", or "durable:<what>"
  size_t step = 0;     // stream prefix length when detected (0 = post-pass)
  std::string detail;
};

struct DiffResult {
  bool ok = true;
  std::vector<DiffFailure> failures;
  size_t variants = 0;      // engine configurations actually run
  size_t oracle_checks = 0; // (variant, checkpoint) comparisons performed
  std::string Summary() const;
};

/// The built-in variant set compatible with (q, stream): the universal
/// view-tree engine (single, batch x {1, opts.threads} threads), paged-
/// storage twins of the single, sequential-batch and 2-thread batch
/// configs when scratch_dir is set (tiny buffer pool, spilling to
/// scratch_dir, sharing the heap configs' dump groups), the four Fig. 4
/// strategies, and — when the
/// query's structure allows — the insert-only, CQAP, mixed
/// static/dynamic, and shattered engines.
std::vector<EngineVariant> BuiltinVariants(const GenQuery& q,
                                           const Stream& stream,
                                           const DifferOptions& opts);

/// Runs the full differential check. Stops at the first failing checkpoint
/// (reporting every variant that disagrees there); the durability passes
/// run only when the live comparison is clean.
DiffResult RunDiffer(const GenQuery& q, const Stream& stream,
                     const DifferOptions& opts);

/// Enumerates `e` and projects its output (over `out_schema`) onto `free`,
/// summing payloads of tuples identified by the projection and dropping
/// zeros — the common comparison currency.
std::map<Tuple, int64_t> ProjectedOutput(IvmEngine<IntRing>& e,
                                         const Schema& out_schema,
                                         const Schema& free);

/// "(1, 2, 3)" — used in failure details and .repro files.
std::string RenderTuple(const Tuple& t);

}  // namespace check
}  // namespace incr

#endif  // INCR_CHECK_DIFFER_H_
