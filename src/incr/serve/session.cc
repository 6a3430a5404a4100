#include "incr/serve/session.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/core/view_tree_plan.h"
#include "incr/engines/engine.h"
#include "incr/obs/explain.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/product_ring.h"

namespace incr {
namespace serve {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using AvgRing = ProductRing<IntRing, IntRing>;

/// The ring payload of a named delta, per the compiled statement's lifting
/// functions (sql/sql.h).
template <RingType R>
typename R::Value LiftPayload(const sql::CompiledSql& c, const std::string& rel,
                              const Tuple& t, int64_t m) {
  if constexpr (std::is_same_v<R, IntRing>) {
    return sql::LiftInt(c, rel, t, m);
  } else if constexpr (std::is_same_v<R, AvgRing>) {
    return sql::LiftPair(c, rel, t, m);
  } else {
    static_assert(std::is_same_v<R, CovarRing<2>>);
    return sql::LiftCovar(c, rel, t, m);
  }
}

std::string RenderDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string RenderPayload(const std::pair<int64_t, int64_t>& v) {
  return "count=" + std::to_string(v.first) +
         " sum=" + std::to_string(v.second);
}

std::string RenderPayload(const CovarValue<2>& v) {
  std::string out = "count=" + std::to_string(v.count) + " sum=[";
  for (size_t i = 0; i < 2; ++i) {
    if (i > 0) out += " ";
    out += RenderDouble(v.sum[i]);
  }
  out += "] prod=[";
  for (size_t i = 0; i < 4; ++i) {
    if (i > 0) out += " ";
    out += RenderDouble(v.prod[i]);
  }
  out += "]";
  return out;
}

void AppendPayload(std::string& out, const int64_t& v) { AppendInt(out, v); }

template <typename P>
void AppendPayload(std::string& out, const P& v) {
  out += RenderPayload(v);
}

std::string HistJson(const obs::HistogramStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"count\":%llu,\"p50_ns\":%.0f,\"p99_ns\":%.0f}",
                static_cast<unsigned long long>(s.count), s.Quantile(50),
                s.Quantile(99));
  return buf;
}

/// Appends value tokens for ENUMERATE: integers straight from to_chars,
/// string codes through the shared codec under the dictionary lock (other
/// workers intern concurrently).
class TokenWriter {
 public:
  TokenWriter(const Dictionary& dict, std::mutex& mu) : dict_(dict), mu_(mu) {}

  void Append(std::string& out, Value v) const {
    if (v < kStringCodeBase) {
      AppendInt(out, v);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    AppendToken(out, v, dict_);
  }

 private:
  const Dictionary& dict_;
  std::mutex& mu_;
};

/// ENUMERATE's rows, rendered back to back into one buffer; each row is an
/// (offset, length) span of it. Collecting k rows costs amortized O(1)
/// allocations, and sorting them moves spans, not strings.
class RowArena {
 public:
  /// The buffer a row is rendered into; call EndRow(start) after it, with
  /// `start` the buffer size before the row.
  std::string& bytes() { return bytes_; }
  void EndRow(size_t start) {
    const size_t len = bytes_.size() - start;
    uint64_t prefix = 0;
    for (size_t i = 0; i < sizeof prefix; ++i) {
      prefix = prefix << 8 |
               (i < len ? static_cast<unsigned char>(bytes_[start + i]) : 0u);
    }
    spans_.push_back(Span{prefix, start, len});
  }

  /// "OK rows=<k>" plus the k collected rows in std::string byte order,
  /// one per line: O(k log k).
  std::string Reply() {
    std::sort(spans_.begin(), spans_.end(),
              [this](const Span& a, const Span& b) {
                if (a.prefix != b.prefix) return a.prefix < b.prefix;
                return View(a) < View(b);
              });
    std::string out = "OK rows=" + std::to_string(spans_.size());
    size_t bytes = out.size();
    for (const Span& s : spans_) bytes += 1 + s.len;
    out.reserve(bytes);
    for (const Span& s : spans_) {
      out += '\n';
      out += View(s);
    }
    return out;
  }

 private:
  struct Span {
    // The first 8 bytes, big-endian and zero-padded: unequal prefixes
    // order two rows exactly as their bytes do (a zero pad byte only
    // differs from a real byte when one row ends early, i.e. is the
    // smaller), so most comparisons never touch the buffer.
    uint64_t prefix;
    size_t off;
    size_t len;
  };
  std::string_view View(const Span& s) const {
    return std::string_view(bytes_.data() + s.off, s.len);
  }

  std::string bytes_;
  std::vector<Span> spans_;
};

/// A COUNT or plain SELECT: Z multiplicities, the count every wider tree
/// over the same join carries.
bool CountLike(sql::SqlAggregate agg) {
  return agg == sql::SqlAggregate::kNone || agg == sql::SqlAggregate::kCount;
}

}  // namespace

/// One delta as the wire names it: relation, tuple, Z multiplicity. Each
/// maintained tree lifts the multiplicity into its own ring payload.
struct NamedDelta {
  std::string relation;
  Tuple tuple;
  int64_t mult = 1;
};

/// One view tree with its maintenance mutex, shared by every registered
/// query over the same join and group-by (same CompiledSql::cq_text, hence
/// the same variable ids). `compiled` is the statement whose lifting
/// functions define the payloads: the widest aggregate registered so far.
/// A COUNT or plain query reads an AVG or COVAR tree through its count
/// component, which the product ring maintains exactly as an IntRing tree
/// would (ring/product_ring.h adds and multiplies componentwise).
class MaintainedTree {
 public:
  explicit MaintainedTree(sql::CompiledSql compiled)
      : compiled_(std::move(compiled)) {}
  virtual ~MaintainedTree() = default;

  const sql::CompiledSql& compiled() const { return compiled_; }

  /// The registered queries this tree maintains.
  const std::vector<RegisteredQuery*>& queries() const { return queries_; }
  void Attach(RegisteredQuery* q) { queries_.push_back(q); }

  /// True if a delta to `rel` with `arity` columns feeds this tree.
  bool Matches(const std::string& rel, size_t arity) const {
    for (const Atom& a : compiled_.query.atoms()) {
      if (a.relation == rel && a.schema.size() == arity) return true;
    }
    return false;
  }

  /// Applies `deltas` as one engine batch, serialized by the maintenance
  /// mutex: ONE maintainer per tree, the shape the snapshot path wants.
  /// Every query the tree serves records the apply in its own metrics.
  void Apply(std::span<const NamedDelta* const> deltas);

  /// Renders the first `limit` output rows of a pinned snapshot into
  /// `rows`; with `count_only`, each row's count component, and rows whose
  /// count is zero are skipped (a Z-relation can cancel the count of a
  /// group while its sums stay non-zero, which an IntRing tree drops).
  virtual void CollectRows(size_t limit, bool count_only,
                           const TokenWriter& tokens, RowArena* rows) = 0;

  /// Takes the maintenance mutex: the report reads the maintainer's live
  /// state and per-node stats, which another worker's Apply mutates.
  obs::ExplainReport Explain(bool analyze) {
    std::lock_guard<std::mutex> lock(maintain_mu_);
    return ExplainImpl(analyze);
  }

 protected:
  virtual void ApplyImpl(std::span<const NamedDelta* const> deltas) = 0;
  virtual obs::ExplainReport ExplainImpl(bool analyze) = 0;

 private:
  const sql::CompiledSql compiled_;
  std::mutex maintain_mu_;
  std::vector<RegisteredQuery*> queries_;
};

/// One registered continuous query: id, compiled SQL, variable names and
/// `server.q<N>.*` metrics, reading the tree that maintains it.
class RegisteredQuery {
 public:
  RegisteredQuery(int id, sql::CompiledSql compiled, VarRegistry vars)
      : id_(id),
        compiled_(std::move(compiled)),
        vars_(std::move(vars)),
        reads_count_(CountLike(compiled_.agg)) {
    auto& reg = obs::MetricsRegistry::Global();
    const std::string prefix = "server.q" + std::to_string(id_) + ".";
    updates_ = reg.GetCounter(prefix + "updates");
    update_ns_ = reg.GetHistogram(prefix + "update_ns");
    lock_wait_ns_ = reg.GetHistogram(prefix + "lock_wait_ns");
    enum_ns_ = reg.GetHistogram(prefix + "enum_ns");
  }

  void set_tree(MaintainedTree* tree) { tree_ = tree; }

  /// One apply of `deltas` deltas by the tree: `lock_wait_ns` to own its
  /// maintenance mutex, `update_ns` for the whole call.
  void RecordApply(uint64_t lock_wait_ns, uint64_t update_ns, size_t deltas) {
    lock_wait_ns_->Record(lock_wait_ns);
    update_ns_->Record(update_ns);
    updates_->Add(deltas);
  }

  /// "OK rows=<k>" plus the first k = min(limit, n) "v1 v2 -> payload" rows
  /// of an epoch snapshot's enumeration order, sorted by bytes (no
  /// maintenance mutex: readers are lock-free). The k rows are rendered into
  /// one arena while the snapshot is pinned; the pin ends before the sort.
  std::string EnumerateText(size_t limit, const TokenWriter& tokens) {
    const uint64_t t0 = NowNs();
    RowArena rows;
    tree_->CollectRows(limit, reads_count_, tokens, &rows);
    std::string out = rows.Reply();
    enum_ns_->Record(NowNs() - t0);
    return out;
  }

  std::string StatsJson() const {
    std::string out = "{\"id\":\"q" + std::to_string(id_) + "\",";
    out += "\"aggregate\":\"" +
           std::string(sql::SqlAggregateName(compiled_.agg)) + "\",";
    out += "\"updates\":" + std::to_string(updates_->Value()) + ",";
    out += "\"update_ns\":" + HistJson(update_ns_->Stats()) + ",";
    out += "\"lock_wait_ns\":" + HistJson(lock_wait_ns_->Stats()) + ",";
    out += "\"enumerate_ns\":" + HistJson(enum_ns_->Stats()) + "}";
    return out;
  }

  /// The report of the tree that maintains this query, in its names.
  std::string ExplainJson(bool analyze) {
    obs::ExplainReport report = tree_->Explain(analyze);
    // Swap the v<N> fallbacks for the statement's names and re-render the
    // query text with them.
    for (Var v : compiled_.query.AllVars()) {
      if (static_cast<size_t>(v) >= report.var_names.size()) {
        report.var_names.resize(static_cast<size_t>(v) + 1);
      }
      report.var_names[static_cast<size_t>(v)] = vars_.Name(v);
    }
    report.query = obs::RenderQuery(compiled_.query, report.var_names);
    return report.ToJson();
  }

 private:
  const int id_;
  const sql::CompiledSql compiled_;
  const VarRegistry vars_;
  // COUNT or plain SELECT: the tree's count component (on an IntRing
  // tree, the payload itself); otherwise the payload as maintained.
  const bool reads_count_;
  MaintainedTree* tree_ = nullptr;
  obs::Counter* updates_;
  obs::Histogram* update_ns_;
  obs::Histogram* lock_wait_ns_;
  obs::Histogram* enum_ns_;
};

void MaintainedTree::Apply(std::span<const NamedDelta* const> deltas) {
  const uint64_t t0 = NowNs();
  uint64_t wait_ns = 0;
  {
    std::lock_guard<std::mutex> lock(maintain_mu_);
    wait_ns = NowNs() - t0;
    ApplyImpl(deltas);
  }
  const uint64_t update_ns = NowNs() - t0;
  for (RegisteredQuery* q : queries_) {
    q->RecordApply(wait_ns, update_ns, deltas.size());
  }
}

namespace {

int64_t CountOf(int64_t v) { return v; }
int64_t CountOf(const std::pair<int64_t, int64_t>& v) { return v.first; }
int64_t CountOf(const CovarValue<2>& v) { return v.count; }

template <RingType R>
class TypedTree : public MaintainedTree {
 public:
  TypedTree(sql::CompiledSql compiled, ViewTree<R> tree)
      : MaintainedTree(std::move(compiled)), engine_(std::move(tree)) {}

  ViewTreeEngine<R>& engine() { return engine_; }

  void CollectRows(size_t limit, bool count_only, const TokenWriter& tokens,
                   RowArena* rows) override {
    if (limit == 0) return;
    std::string& out = rows->bytes();
    auto append = [&](const typename R::Value& p) {
      if (count_only) {
        AppendInt(out, CountOf(p));
      } else {
        AppendPayload(out, p);
      }
    };
    const ViewTreeSnapshot<R> snap = engine_.tree().Snapshot();
    if (compiled().query.free().empty()) {
      // Scalar aggregate: one row from the snapshot's root product.
      out += "-> ";
      append(snap.Aggregate());
      rows->EndRow(0);
      return;
    }
    size_t n = 0;
    for (ViewTreeEnumerator<R> it = snap.Enumerate(); it.Valid(); it.Next()) {
      // payload() looks the row's factors up: compute it once.
      const typename R::Value p = it.payload();
      if (count_only && CountOf(p) == 0) continue;
      const size_t start = out.size();
      for (Value v : it.tuple()) {
        tokens.Append(out, v);
        out += ' ';
      }
      out += "-> ";
      append(p);
      rows->EndRow(start);
      if (++n == limit) break;
    }
  }

 protected:
  void ApplyImpl(std::span<const NamedDelta* const> deltas) override {
    std::vector<Delta<R>> batch;
    batch.reserve(deltas.size());
    for (const NamedDelta* d : deltas) {
      batch.push_back(Delta<R>{
          d->relation, d->tuple,
          LiftPayload<R>(compiled(), d->relation, d->tuple, d->mult)});
    }
    engine_.ApplyBatch(batch);
  }

  obs::ExplainReport ExplainImpl(bool analyze) override {
    return engine_.Explain(analyze);
  }

 private:
  ViewTreeEngine<R> engine_;
};

/// Builds the tree of `compiled`. With `from` (an IntRing tree over the
/// same join), it starts from `from`'s live atoms, each multiplicity lifted
/// into this tree's ring, and rebuilt bottom-up.
template <RingType R>
StatusOr<std::unique_ptr<MaintainedTree>> MakeTree(
    sql::CompiledSql compiled, EngineOptions eopts,
    const ViewTree<IntRing>* from = nullptr) {
  auto vo = EnumerableOrderFor(compiled.query);
  if (!vo.ok()) return vo.status();
  auto tree = ViewTree<R>::Make(compiled.query, *std::move(vo), eopts.storage);
  if (!tree.ok()) return tree.status();
  auto t = std::make_unique<TypedTree<R>>(std::move(compiled),
                                          *std::move(tree));
  if (from != nullptr) {
    ViewTree<R>& to = t->engine().tree();
    const std::vector<Atom>& atoms = t->compiled().query.atoms();
    size_t loaded = 0;
    for (size_t a = 0; a < atoms.size(); ++a) {
      from->AtomRelation(a).ForEachEntry(
          [&](const Tuple& tuple, const int64_t& m) {
            to.LoadAtom(a, tuple,
                        LiftPayload<R>(t->compiled(), atoms[a].relation,
                                       tuple, m));
            ++loaded;
          });
    }
    if (loaded > 0) to.Rebuild();
  }
  // The ENUMERATE path reads epoch snapshots concurrently with the
  // maintainers; snapshots are therefore not optional here.
  eopts.snapshot_reads = true;
  t->engine().Configure(eopts);
  return std::unique_ptr<MaintainedTree>(std::move(t));
}

/// Same aggregate over the same lifted columns.
bool SameLifts(const sql::CompiledSql& a, const sql::CompiledSql& b) {
  if (a.agg != b.agg || a.lifts.size() != b.lifts.size()) return false;
  for (size_t i = 0; i < a.lifts.size(); ++i) {
    if (a.lifts[i].relation != b.lifts[i].relation ||
        a.lifts[i].column != b.lifts[i].column) {
      return false;
    }
  }
  return true;
}

}  // namespace

Session::Session(EngineOptions engine) : engine_opts_(std::move(engine)) {}

Session::~Session() = default;

size_t Session::num_queries() const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  return queries_.size();
}

size_t Session::num_trees() const {
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  return trees_.size();
}

std::string Session::Execute(std::string_view cmd, bool* close_after) {
  const size_t nl = cmd.find('\n');
  std::string_view first = cmd.substr(0, nl);
  if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
  std::istringstream in{std::string(first)};
  std::string word;
  in >> word;
  if (word.empty()) return "ERR empty command";
  std::string upper = word;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  // Rest of the first line (single-line commands' arguments).
  std::string args;
  std::getline(in, args);
  size_t start = args.find_first_not_of(" \t");
  args = start == std::string::npos ? "" : args.substr(start);

  if (upper == "PING") return "OK pong";
  if (upper == "QUIT") {
    *close_after = true;
    return "OK bye";
  }
  if (upper == "REGISTER") {
    // SQL may span lines: everything after the command word is the text.
    size_t pos = cmd.find(word) + word.size();
    return CmdRegister(std::string(cmd.substr(pos)));
  }
  if (upper == "UPDATE") return CmdUpdate(args);
  if (upper == "BATCH") {
    return CmdBatch(nl == std::string_view::npos
                        ? ""
                        : std::string(cmd.substr(nl + 1)));
  }
  if (upper == "ENUMERATE") return CmdEnumerate(args);
  if (upper == "STATS") return CmdStats(args);
  if (upper == "EXPLAIN") return CmdExplain(args);
  return "ERR unknown command '" + word +
         "' (try REGISTER, UPDATE, BATCH, ENUMERATE, STATS, EXPLAIN, PING, "
         "QUIT)";
}

std::string Session::CmdRegister(const std::string& sql_text) {
  std::unique_lock<std::shared_mutex> lock(reg_mu_);
  VarRegistry vars;
  auto compiled = sql::CompileSql(sql_text, &vars, &catalog_);
  if (!compiled.ok()) return "ERR " + compiled.status().message();
  const sql::SqlAggregate agg = compiled->agg;
  // Find the tree this query shares: one with the same aggregate over the
  // same lifted columns, or (for COUNT) any tree but a SUM one, whose count
  // component it reads. An AVG or COVAR query widens a COUNT tree instead.
  MaintainedTree* shared = nullptr;
  size_t narrow = trees_.size();
  for (size_t i = 0; i < trees_.size() && shared == nullptr; ++i) {
    const sql::CompiledSql& tc = trees_[i]->compiled();
    if (tc.cq_text != compiled->cq_text) continue;
    if (CountLike(agg) ? tc.agg != sql::SqlAggregate::kSum
                       : SameLifts(tc, *compiled)) {
      shared = trees_[i].get();
    } else if (CountLike(tc.agg) && narrow == trees_.size()) {
      narrow = i;
    }
  }
  if (shared == nullptr) {
    const bool widen = narrow < trees_.size() &&
                       (agg == sql::SqlAggregate::kAvg ||
                        agg == sql::SqlAggregate::kCovar);
    // A COUNT tree is always an IntRing tree (widening replaces it).
    const ViewTree<IntRing>* from =
        widen ? &static_cast<TypedTree<IntRing>*>(trees_[narrow].get())
                     ->engine()
                     .tree()
              : nullptr;
    StatusOr<std::unique_ptr<MaintainedTree>> t =
        Status::Internal("unreachable");
    switch (agg) {
      case sql::SqlAggregate::kNone:
      case sql::SqlAggregate::kCount:
      case sql::SqlAggregate::kSum:
        t = MakeTree<IntRing>(*compiled, engine_opts_);
        break;
      case sql::SqlAggregate::kAvg:
        t = MakeTree<AvgRing>(*compiled, engine_opts_, from);
        break;
      case sql::SqlAggregate::kCovar:
        t = MakeTree<CovarRing<2>>(*compiled, engine_opts_, from);
        break;
    }
    if (!t.ok()) return "ERR " + t.status().message();
    std::unique_ptr<MaintainedTree> made = *std::move(t);
    shared = made.get();
    if (widen) {
      // The wider tree takes over the COUNT tree's queries and its place;
      // REGISTER holds reg_mu_ exclusively, so no apply or snapshot of the
      // retired tree is live.
      for (RegisteredQuery* q : trees_[narrow]->queries()) {
        q->set_tree(shared);
        shared->Attach(q);
      }
      trees_[narrow] = std::move(made);
    } else {
      trees_.push_back(std::move(made));
    }
  }
  const int id = next_query_id_;
  auto q = std::make_unique<RegisteredQuery>(id, *std::move(compiled),
                                             std::move(vars));
  q->set_tree(shared);
  shared->Attach(q.get());
  queries_.emplace(id, std::move(q));
  ++next_query_id_;
  return "OK q" + std::to_string(id);
}

StatusOr<Value> Session::ParseValue(const std::string& tok) {
  return ParseToken(tok, [this](const std::string& s) {
    std::lock_guard<std::mutex> lock(dict_mu_);
    return dict_.Intern(s);
  });
}

bool Session::ParseNamedDelta(const std::string& line, NamedDelta* out,
                              std::string* err) {
  std::istringstream in(line);
  std::string rel, tok;
  in >> rel;
  int64_t sign = 1;
  if (!rel.empty() && (rel[0] == '+' || rel[0] == '-')) {
    if (rel[0] == '-') sign = -1;
    rel = rel.substr(1);
  }
  if (rel.empty()) {
    *err = "missing relation name";
    return false;
  }
  Tuple t;
  int64_t mult = 1;
  while (in >> tok) {
    if (tok.size() > 1 && tok[0] == 'x') {
      char* end = nullptr;
      long long m = std::strtoll(tok.c_str() + 1, &end, 10);
      if (end != tok.c_str() + 1 && *end == '\0') {
        mult = m;
        continue;
      }
    }
    StatusOr<Value> v = ParseValue(tok);
    if (!v.ok()) {
      *err = v.status().message();
      return false;
    }
    t.push_back(*v);
  }
  if (t.empty()) {
    *err = "delta for " + rel + " has no values";
    return false;
  }
  out->relation = std::move(rel);
  out->tuple = std::move(t);
  out->mult = sign * mult;
  return true;
}

std::string Session::CmdUpdate(const std::string& args) {
  NamedDelta d;
  std::string err;
  if (!ParseNamedDelta(args, &d, &err)) return "ERR " + err;
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  auto it = catalog_.tables.find(d.relation);
  if (it != catalog_.tables.end() && it->second.size() != d.tuple.size()) {
    return "ERR arity mismatch: " + d.relation + " has " +
           std::to_string(it->second.size()) + " columns, got " +
           std::to_string(d.tuple.size());
  }
  size_t routed = 0;
  const NamedDelta* one = &d;
  for (const auto& tree : trees_) {
    if (tree->Matches(d.relation, d.tuple.size())) {
      tree->Apply(std::span<const NamedDelta* const>(&one, 1));
      routed += tree->queries().size();
    }
  }
  return "OK routed=" + std::to_string(routed);
}

std::string Session::CmdBatch(const std::string& body) {
  std::vector<NamedDelta> deltas;
  size_t lineno = 1;  // line 1 is the BATCH command itself
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    NamedDelta d;
    std::string err;
    if (!ParseNamedDelta(line.substr(start), &d, &err)) {
      // All-or-nothing: a malformed line rejects the whole batch before
      // anything is applied.
      return "ERR line " + std::to_string(lineno) + ": " + err;
    }
    deltas.push_back(std::move(d));
  }
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto it = catalog_.tables.find(deltas[i].relation);
    if (it != catalog_.tables.end() &&
        it->second.size() != deltas[i].tuple.size()) {
      return "ERR arity mismatch: " + deltas[i].relation + " has " +
             std::to_string(it->second.size()) + " columns";
    }
  }
  // One apply per tree, of the deltas that feed it; routed= counts the
  // queries those applies serve.
  size_t routed = 0;
  std::vector<const NamedDelta*> mine;
  for (const auto& tree : trees_) {
    mine.clear();
    for (const NamedDelta& d : deltas) {
      if (tree->Matches(d.relation, d.tuple.size())) mine.push_back(&d);
    }
    if (mine.empty()) continue;
    tree->Apply(mine);
    routed += tree->queries().size();
  }
  return "OK deltas=" + std::to_string(deltas.size()) +
         " routed=" + std::to_string(routed);
}

RegisteredQuery* Session::FindQuery(const std::string& token) {
  if (token.size() < 2 || (token[0] != 'q' && token[0] != 'Q')) return nullptr;
  char* end = nullptr;
  long id = std::strtol(token.c_str() + 1, &end, 10);
  if (end == token.c_str() + 1 || *end != '\0') return nullptr;
  auto it = queries_.find(static_cast<int>(id));
  return it == queries_.end() ? nullptr : it->second.get();
}

std::string Session::CmdEnumerate(const std::string& args) {
  std::istringstream in(args);
  std::string token, limit_tok;
  in >> token >> limit_tok;
  size_t limit = std::numeric_limits<size_t>::max();
  if (!limit_tok.empty()) {
    char* end = nullptr;
    long long v = std::strtoll(limit_tok.c_str(), &end, 10);
    if (end == limit_tok.c_str() || *end != '\0' || v < 0) {
      return "ERR bad limit '" + limit_tok + "'";
    }
    limit = static_cast<size_t>(v);
  }
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  RegisteredQuery* q = FindQuery(token);
  if (q == nullptr) return "ERR no such query '" + token + "'";
  return q->EnumerateText(limit, TokenWriter(dict_, dict_mu_));
}

std::string Session::CmdStats(const std::string& args) {
  std::istringstream in(args);
  std::string token;
  in >> token;
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  RegisteredQuery* q = FindQuery(token);
  if (q == nullptr) return "ERR no such query '" + token + "'";
  return "OK " + q->StatsJson();
}

std::string Session::CmdExplain(const std::string& args) {
  std::istringstream in(args);
  std::string token, mode;
  in >> token >> mode;
  bool analyze = false;
  if (mode == "analyze") {
    analyze = true;
  } else if (!mode.empty()) {
    return "ERR usage: EXPLAIN q<N> [analyze]";
  }
  std::shared_lock<std::shared_mutex> lock(reg_mu_);
  RegisteredQuery* q = FindQuery(token);
  if (q == nullptr) return "ERR no such query '" + token + "'";
  return "OK " + q->ExplainJson(analyze);
}

std::string UnescapeNewlines(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size() && line[i + 1] == 'n') {
      out += '\n';
      ++i;
    } else {
      out += line[i];
    }
  }
  return out;
}

}  // namespace serve
}  // namespace incr
