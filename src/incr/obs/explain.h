// EXPLAIN / EXPLAIN ANALYZE: a plan renderer over compiled view trees
// (DESIGN.md §obs). The static side reports the paper-grounded
// classification of the registered query — hierarchical / q-hierarchical
// (Def. 4.2) / free-connex alpha-acyclic — plus, per view-tree node, the
// predicted per-update cost class: O(1) when every delta program probing
// the node is fully keyed, O(N) when some program contains a partially
// bound group scan (view_tree_plan.h's `constant_time` flag, the exact
// signal Thm. 4.1's dichotomy is about). The ANALYZE side joins the live
// NodeObs counters (deltas applied, maintenance ns, fan-out) and view
// sizes onto the same tree, and reconciles engine-level totals from the
// metrics registry.
//
// Reports are plain data: engines fill one via IvmEngine::Explain(), the
// renderers emit aligned text (REPL) or JSON (tooling/CI). This header
// deliberately depends on nothing heavier than <string>/<vector> — the
// view-tree headers include it, not vice versa.
#ifndef INCR_OBS_EXPLAIN_H_
#define INCR_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace incr {
class Query;
class ViewTreePlan;
}  // namespace incr

namespace incr::obs {

/// One view-tree node (one variable of the order) in a report.
struct ExplainNode {
  int id = -1;
  int parent = -1;         ///< parent node id, -1 for a root
  int var = -1;            ///< variable id; rendered via ExplainReport names
  bool free = false;       ///< variable is in the query head
  std::vector<int> key;    ///< schema of M_X (var ids)
  std::vector<std::string> atoms;  ///< relation names anchored here
  size_t programs = 0;         ///< delta programs targeting this node
  size_t scan_programs = 0;    ///< programs containing a group scan (not O(1))
  /// Live stats, populated in ANALYZE mode only.
  bool live = false;
  uint64_t w_size = 0;         ///< |W_X| (tuples)
  uint64_t m_size = 0;         ///< |M_X| (groups)
  uint64_t batch_calls = 0;    ///< batch maintenance invocations
  uint64_t single_deltas = 0;  ///< single-tuple deltas processed
  uint64_t tuples_in = 0;      ///< delta tuples entering the node
  uint64_t tuples_out = 0;     ///< delta tuples emitted upward
  uint64_t apply_ns = 0;       ///< time spent maintaining this node
  uint64_t index_probes = 0;     ///< factor lookups by delta programs
  uint64_t members_scanned = 0;  ///< group members those lookups scanned
  uint64_t indexed_writes = 0;   ///< tuples written into indexed views

  /// tuples emitted per tuple received — the measured fan-out.
  double FanOut() const {
    return tuples_in == 0
               ? 0.0
               : static_cast<double>(tuples_out) / static_cast<double>(tuples_in);
  }
};

/// One compiled view tree. Simple engines have exactly one; cascade has
/// two, CQAP one per fracture component, shattered one per active shard
/// (summarized), insert-only a join tree rendered through the same shape.
struct ExplainTree {
  std::string label;          ///< e.g. "view-tree", "Q2", "component 0"
  bool o1_updates = false;    ///< every delta program is O(1)
  bool o1_delay = false;      ///< constant-delay enumeration supported
  size_t shards = 1;          ///< delta/W shard count (parallel layer)
  size_t morsel_bytes = 0;    ///< morsel grid cell size (0 = default)
  bool snapshots = false;     ///< epoch-versioned serving enabled
  uint64_t published_epoch = 0;
  std::vector<ExplainNode> nodes;
};

/// Engine-level totals joined from the metrics registry in ANALYZE mode —
/// the reconciliation surface: node apply_ns sums must stay inside the
/// engine's batch/update histogram envelope.
struct ExplainTotals {
  bool present = false;     ///< obs compiled in and totals were read
  uint64_t updates = 0;     ///< engine.<name>.update_ns count
  uint64_t update_ns = 0;   ///< engine.<name>.update_ns sum
  uint64_t batches = 0;     ///< engine.<name>.batch_ns count
  uint64_t batch_deltas = 0;
  uint64_t batch_ns = 0;    ///< engine.<name>.batch_ns sum
  uint64_t node_apply_ns = 0;  ///< sum of apply_ns over all report nodes
};

/// A full EXPLAIN [ANALYZE] report for one engine.
struct ExplainReport {
  std::string engine;   ///< IvmEngine::name()
  std::string ring;     ///< payload ring serde name
  std::string query;    ///< rendered query text
  bool analyze = false;
  /// Def. 4.2 / §4.1 classification of the registered query.
  bool hierarchical = false;
  bool q_hierarchical = false;
  bool alpha_acyclic = false;
  bool free_connex = false;
  std::string regime;   ///< one-line consequence of the classification
  size_t threads = 1;
  /// Variable names indexed by var id; missing/empty entries render as
  /// "v<id>". The REPL fills this from its registry before rendering.
  std::vector<std::string> var_names;
  std::vector<std::string> notes;  ///< engine-specific remarks
  std::vector<ExplainTree> trees;
  ExplainTotals totals;

  std::string VarName(int v) const;

  /// Aligned fixed-width table per tree, one header block — the REPL
  /// `explain [analyze]` output.
  std::string ToText() const;
  /// One JSON object with the same content, machine-checkable.
  std::string ToJson() const;
};

/// Renders `q` as "Q(v0) = R(v0, v1) * S(v1)" using `names` (same
/// convention as ExplainReport::var_names).
std::string RenderQuery(const Query& q, const std::vector<std::string>& names);

/// Fills the classification flags, query text, and regime line from `q`;
/// the regime line describes the query's canonical order.
void ClassifyQuery(const Query& q, ExplainReport* report);

/// ClassifyQuery over the plan's query, with the regime line derived from
/// the plan that runs — the o1_updates / o1_delay flags DescribePlan
/// reports for it — rather than from the canonical order.
void ClassifyPlan(const ViewTreePlan& plan, ExplainReport* report);

/// Fills `out->nodes` and the o1_updates / o1_delay flags from a compiled
/// plan (static side only; ANALYZE fields are joined by the view tree).
void DescribePlan(const ViewTreePlan& plan, ExplainTree* out);

}  // namespace incr::obs

#endif  // INCR_OBS_EXPLAIN_H_
