#include "incr/check/differ.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "incr/cqap/cqap_engine.h"
#include "incr/data/page_store.h"
#include "incr/engines/durable_engine.h"
#include "incr/engines/mixed_engine.h"
#include "incr/engines/shattered_engine.h"
#include "incr/engines/strategies.h"
#include "incr/insertonly/insert_only_engine.h"
#include "incr/obs/recorder.h"
#include "incr/query/cqap.h"
#include "incr/query/parser.h"
#include "incr/ring/product_ring.h"
#include "incr/serve/session.h"
#include "incr/sql/sql.h"
#include "incr/store/recover.h"
#include "incr/store/serde.h"
#include "incr/store/wal.h"
#include "incr/util/check.h"

namespace incr {
namespace check {

namespace {

using OutMap = std::map<Tuple, int64_t>;

ViewTree<IntRing> MakeTree(const GenQuery& q,
                           const StorageOptions& so = {}) {
  auto t = ViewTree<IntRing>::Make(q.query, q.vo, so);
  INCR_CHECK(t.ok());
  return *std::move(t);
}

bool SchemaEq(const Schema& a, const Schema& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::string DumpOf(IvmEngine<IntRing>& e) {
  store::ByteWriter w;
  Status st = e.DumpState(w);
  INCR_CHECK(st.ok());
  return w.Take();
}

/// One stream step as a BATCH command of the wire language.
std::string BatchCommand(const StreamStep& s) {
  std::string cmd = "BATCH";
  for (const Delta<IntRing>& d : s.deltas) {
    cmd += "\n" + d.relation;
    for (Value v : d.tuple) {
      cmd += ' ';
      cmd += std::to_string(v);
    }
    cmd += " x";
    cmd += std::to_string(d.delta);
  }
  return cmd;
}

using AvgRing = ProductRing<IntRing, IntRing>;

int64_t CountOf(int64_t p) { return p; }
int64_t CountOf(const std::pair<int64_t, int64_t>& p) { return p.first; }

std::string RenderRow(int64_t p, bool /*count_only*/) {
  return std::to_string(p);
}
std::string RenderRow(const std::pair<int64_t, int64_t>& p, bool count_only) {
  if (count_only) return std::to_string(p.first);
  std::string out = "count=";
  out += std::to_string(p.first);
  out += " sum=";
  out += std::to_string(p.second);
  return out;
}

/// The reply serve::Session gives to `ENUMERATE q<N> [limit]` for a query
/// maintained by `e`: "OK rows=<k>" plus the first k = min(limit, n)
/// "v.. -> payload" rows of the enumeration order, in byte order; a query
/// with no free variables has the one row "-> <aggregate>". With
/// `count_only`, a row shows its payload's count and rows whose count is 0
/// are skipped: a COUNT query reading a shared AvgRing tree. The session's
/// snapshots and `e`'s live tree share that order: it depends only on the
/// sequence of updates.
template <RingType R>
std::string EnumerateReply(ViewTreeEngine<R>& e, bool scalar,
                           size_t limit = SIZE_MAX, bool count_only = true) {
  std::vector<std::string> rows;
  if (scalar) {
    if (limit > 0) {
      rows.push_back("-> " + RenderRow(e.tree().Aggregate(), count_only));
    }
  } else {
    e.Enumerate([&](const Tuple& t, const typename R::Value& p) {
      if (rows.size() == limit || (count_only && CountOf(p) == 0)) return;
      std::string row;
      for (Value v : t) row += std::to_string(v) + " ";
      rows.push_back(row + "-> " + RenderRow(p, count_only));
    });
  }
  std::sort(rows.begin(), rows.end());
  std::string out = "OK rows=" + std::to_string(rows.size());
  for (const std::string& row : rows) out += "\n" + row;
  return out;
}

/// Drives one stream step through an engine. Batch-mode engines take batch
/// steps through ApplyBatch (one call, one WAL record); everything else is
/// per-delta Update.
void ApplyStep(IvmEngine<IntRing>& e, const StreamStep& s, bool batch_mode) {
  if (s.is_batch && batch_mode) {
    e.ApplyBatch(std::span<const Delta<IntRing>>(s.deltas));
    return;
  }
  for (const Delta<IntRing>& d : s.deltas) e.Update(d.relation, d.tuple, d.delta);
}

std::string DescribeDiff(const OutMap& got, const OutMap& want) {
  for (const auto& [k, v] : want) {
    auto it = got.find(k);
    if (it == got.end()) {
      return "missing " + RenderTuple(k) + " -> " + std::to_string(v);
    }
    if (it->second != v) {
      return "at " + RenderTuple(k) + ": got " + std::to_string(it->second) +
             ", want " + std::to_string(v);
    }
  }
  for (const auto& [k, v] : got) {
    if (want.find(k) == want.end()) {
      return "spurious " + RenderTuple(k) + " -> " + std::to_string(v);
    }
  }
  return "outputs differ";
}

std::string FirstByteDiff(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return "first byte diff at offset " + std::to_string(i) + " (sizes " +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  INCR_CHECK(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  INCR_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  INCR_CHECK(out.good());
}

size_t WalHeaderBytes() {
  std::string h;
  store::EncodeWalHeader(&h, store::RingSerdeName<IntRing>(), 0);
  return h.size();
}

void ResetScratchDir(const std::string& dir) {
  Status st = store::EnsureDir(dir);
  INCR_CHECK(st.ok());
  std::remove(store::WalPath(dir).c_str());
  std::remove(store::SnapshotPath(dir).c_str());
}

}  // namespace

std::string RenderTuple(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(t[i]);
  }
  return out + ")";
}

std::map<Tuple, int64_t> ProjectedOutput(IvmEngine<IntRing>& e,
                                         const Schema& out_schema,
                                         const Schema& free) {
  OutMap out;
  if (SchemaEq(out_schema, free)) {
    e.Enumerate([&](const Tuple& t, const int64_t& p) { out[t] += p; });
  } else {
    auto pos = ProjectionPositions(out_schema, free);
    e.Enumerate([&](const Tuple& t, const int64_t& p) {
      Tuple pr;
      pr.reserve(pos.size());
      for (uint32_t i : pos) pr.push_back(t[i]);
      out[pr] += p;
    });
  }
  for (auto it = out.begin(); it != out.end();) {
    if (it->second == 0) {
      it = out.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<EngineVariant> BuiltinVariants(const GenQuery& q,
                                           const Stream& stream,
                                           const DifferOptions& opts) {
  const GenQuery* qp = &q;
  std::vector<EngineVariant> out;
  const Schema vt_out = MakeTree(q).OutputSchema();

  auto make_view_tree = [qp](size_t threads, size_t morsel_bytes,
                             const StorageOptions& so = {}) {
    return [qp, threads, morsel_bytes,
            so]() -> std::unique_ptr<IvmEngine<IntRing>> {
      auto e = std::make_unique<ViewTreeEngine<IntRing>>(MakeTree(*qp, so));
      if (threads > 1) {
        EngineOptions o;
        o.threads = threads;
        o.morsel_bytes = morsel_bytes;
        e->Configure(o);
      }
      return e;
    };
  };

  // The universal engine: single-update reference, plus the batch path
  // sequentially and in parallel. Parallel results are ring-identical to
  // sequential but NOT byte-identical (the parallel W layout is sharded),
  // so the byte-level group spans only the parallel configs: the shard
  // partition and per-shard application order are invariant under both
  // the thread count and the morsel grid, so any two parallel configs —
  // including one with a deliberately tiny morsel size, which maximizes
  // segment count and stealing — must dump the same bytes.
  out.push_back({"view-tree/single", make_view_tree(1, 0), vt_out,
                 /*batch_mode=*/false, "single"});
  out.push_back({"view-tree/batch/t1", make_view_tree(1, 0), vt_out,
                 /*batch_mode=*/true, "batch-seq"});
  if (opts.threads > 1) {
    out.push_back({"view-tree/batch/t2",
                   make_view_tree(2, opts.morsel_bytes), vt_out,
                   /*batch_mode=*/true, "batch-par"});
    out.push_back({"view-tree/batch/t2/m64", make_view_tree(2, 64), vt_out,
                   /*batch_mode=*/true, "batch-par"});
    if (opts.threads != 2) {
      out.push_back({"view-tree/batch/t" + std::to_string(opts.threads),
                     make_view_tree(opts.threads, opts.morsel_bytes),
                     vt_out,
                     /*batch_mode=*/true, "batch-par"});
    }
  }

  // Paged-storage twins (data/page_store.h): the single-update, sequential
  // and parallel batch engines again, over the buffer-pool backend with a
  // deliberately tiny pool (kMinFrames minimum pages), so most state lives
  // in the spill file and probes continually cross the pager. Both storage
  // backends run the one DenseMap probe core and serialization is
  // canonical over entries, so these join the heap configs' dump groups
  // byte-for-byte — the storage backend must be invisible in both output
  // and serialized state. The parallel twin replays per-index op streams
  // concurrently over the one shared PageStore.
  if (!opts.scratch_dir.empty()) {
    StorageOptions so;
    so.backend = StorageBackend::kPaged;
    so.spill_dir = opts.scratch_dir;
    so.page_bytes = StorageOptions::kMinPageBytes;
    so.buffer_pool_bytes =
        StorageOptions::kMinPageBytes * StorageOptions::kMinFrames;
    out.push_back({"view-tree/paged/single", make_view_tree(1, 0, so), vt_out,
                   /*batch_mode=*/false, "single"});
    out.push_back({"view-tree/paged/batch", make_view_tree(1, 0, so), vt_out,
                   /*batch_mode=*/true, "batch-seq"});
    if (opts.threads > 1) {
      out.push_back({"view-tree/paged/batch/t2",
                     make_view_tree(2, opts.morsel_bytes, so), vt_out,
                     /*batch_mode=*/true, "batch-par"});
    }
  }

  // The four Fig. 4 strategies over the same tree. Eager-fact's per-update
  // path performs the identical UpdateAtom sequence as the view-tree
  // engine's, so it joins the "single" dump group; the lazy strategies
  // flush at enumeration/dump time and so have no stable byte identity
  // with the eager configs.
  out.push_back({"eager-fact/single",
                 [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                   return std::make_unique<EagerFactStrategy<IntRing>>(
                       MakeTree(*qp));
                 },
                 vt_out, /*batch_mode=*/false, "single"});
  out.push_back({"eager-fact/batch",
                 [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                   return std::make_unique<EagerFactStrategy<IntRing>>(
                       MakeTree(*qp));
                 },
                 vt_out, /*batch_mode=*/true, "batch-seq"});
  out.push_back({"eager-list/single",
                 [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                   return std::make_unique<EagerListStrategy<IntRing>>(
                       MakeTree(*qp));
                 },
                 vt_out, /*batch_mode=*/false, ""});
  out.push_back({"lazy-fact/batch",
                 [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                   return std::make_unique<LazyFactStrategy<IntRing>>(
                       MakeTree(*qp));
                 },
                 vt_out, /*batch_mode=*/true, ""});
  out.push_back({"lazy-list/single",
                 [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                   return std::make_unique<LazyListStrategy<IntRing>>(
                       MakeTree(*qp));
                 },
                 vt_out, /*batch_mode=*/false, ""});

  // Insert-only engine (§4.6): alpha-acyclic join queries (all variables
  // free) under insert-only streams.
  if (stream.insert_only &&
      q.query.free().size() == q.query.AllVars().size()) {
    auto probe = InsertOnlyEngine::Make(q.query);
    if (probe.ok()) {
      Schema os = probe->OutputSchema();
      out.push_back({"insert-only",
                     [qp]() -> std::unique_ptr<IvmEngine<IntRing>> {
                       auto e = InsertOnlyEngine::Make(qp->query);
                       INCR_CHECK(e.ok());
                       return std::make_unique<InsertOnlyEngine>(
                           *std::move(e));
                     },
                     os, /*batch_mode=*/false, ""});
    }
  }

  // CQAP engine (§4.3) in its input-free form: Q(free | ) — Enumerate is
  // the single access request over the fracture's components.
  {
    std::vector<Atom> atoms(q.query.atoms().begin(), q.query.atoms().end());
    CqapQuery cq =
        CqapQuery::Make("Qc", Schema{}, q.query.free(), std::move(atoms));
    auto probe = CqapEngine<IntRing>::Make(cq);
    if (probe.ok()) {
      out.push_back({"cqap",
                     [cq]() -> std::unique_ptr<IvmEngine<IntRing>> {
                       auto e = CqapEngine<IntRing>::Make(cq);
                       INCR_CHECK(e.ok());
                       return std::make_unique<CqapEngine<IntRing>>(
                           *std::move(e));
                     },
                     q.query.free(), /*batch_mode=*/false, ""});
    }
  }

  // Mixed static/dynamic engine (§4.5) with every atom dynamic: same
  // update regime as the others, but over the mixed-order search's tree.
  {
    std::vector<bool> is_static(q.query.atoms().size(), false);
    auto probe = MixedStaticDynamicEngine<IntRing>::Make(q.query, is_static);
    if (probe.ok() && probe->tree().plan().CanEnumerate().ok()) {
      Schema os = probe->tree().OutputSchema();
      out.push_back(
          {"mixed-dynamic",
           [qp, is_static]() -> std::unique_ptr<IvmEngine<IntRing>> {
             auto e =
                 MixedStaticDynamicEngine<IntRing>::Make(qp->query, is_static);
             INCR_CHECK(e.ok());
             auto p = std::make_unique<MixedStaticDynamicEngine<IntRing>>(
                 *std::move(e));
             p->Seal();  // empty initial database
             return p;
           },
           os, /*batch_mode=*/false, ""});
    }
  }

  // Shattered engine (§4.4): declare the first variable that yields a
  // q-hierarchical residual as small-domain. Output tuples are the small
  // assignment concatenated with the residual tree's output.
  for (Var v : q.query.AllVars()) {
    auto probe = ShatteredEngine<IntRing>::Make(q.query, Schema{v});
    if (!probe.ok()) continue;
    if (probe->residual_query().atoms().empty()) continue;
    auto rtree = ViewTree<IntRing>::Make(probe->residual_query());
    if (!rtree.ok() || !rtree->plan().CanEnumerate().ok()) continue;
    Schema os{v};
    for (Var w : rtree->OutputSchema()) os.push_back(w);
    out.push_back({"shattered",
                   [qp, v]() -> std::unique_ptr<IvmEngine<IntRing>> {
                     auto e =
                         ShatteredEngine<IntRing>::Make(qp->query, Schema{v});
                     INCR_CHECK(e.ok());
                     return std::make_unique<ShatteredEngine<IntRing>>(
                         *std::move(e));
                   },
                   os, /*batch_mode=*/false, ""});
    break;
  }

  return out;
}

std::string DiffResult::Summary() const {
  if (ok) {
    return "ok: " + std::to_string(variants) + " variants, " +
           std::to_string(oracle_checks) + " oracle checks";
  }
  std::string s = "FAIL:";
  for (const DiffFailure& f : failures) {
    s += "\n  [" + f.label + "]";
    if (f.step > 0) s += " at step " + std::to_string(f.step);
    s += ": " + f.detail;
  }
  return s;
}

DiffResult RunDiffer(const GenQuery& q, const Stream& stream,
                     const DifferOptions& opts) {
  DiffResult res;
  std::vector<EngineVariant> variants;
  if (opts.builtin) variants = BuiltinVariants(q, stream, opts);
  for (const auto& factory : opts.extra) {
    for (EngineVariant& v : factory(q, stream)) variants.push_back(std::move(v));
  }
  res.variants = variants.size();
  // Flight-recorder breadcrumbs: pass id in `a` (1 = oracle, 2 = dumps,
  // 3 = snapshot isolation, 4 = durability, 5 = SQL round trip) so a
  // .repro's event tail shows which differ tier the failure interrupted.
  obs::RecordEvent(obs::EventKind::kDifferPass, 1, variants.size());

  struct Live {
    const EngineVariant* v;
    std::unique_ptr<IvmEngine<IntRing>> e;
  };
  std::vector<Live> live;
  live.reserve(variants.size());
  for (const EngineVariant& v : variants) live.push_back({&v, v.make()});

  RecomputeOracle<IntRing> oracle(q.query);
  const Schema& free = q.query.free();
  OutMap want;

  auto check_all = [&](size_t step) {
    want = oracle.Eval();
    bool ok = true;
    for (Live& l : live) {
      OutMap got = ProjectedOutput(*l.e, l.v->out_schema, free);
      ++res.oracle_checks;
      if (got != want) {
        ok = false;
        res.failures.push_back({l.v->label, step, DescribeDiff(got, want)});
      }
    }
    return ok;
  };

  size_t applied = 0;
  for (const StreamStep& s : stream.steps) {
    for (const Delta<IntRing>& d : s.deltas) {
      oracle.Apply(d.relation, d.tuple, d.delta);
    }
    for (Live& l : live) ApplyStep(*l.e, s, l.v->batch_mode);
    ++applied;
    if (opts.check_every != 0 && applied % opts.check_every == 0 &&
        applied != stream.steps.size()) {
      if (!check_all(applied)) {
        res.ok = false;
        return res;
      }
    }
  }
  if (!check_all(applied)) {
    res.ok = false;
    return res;
  }

  // Dump groups: byte-identical serialized state across configs whose op
  // sequences are documented deterministic-equal, plus a dump -> load ->
  // dump round trip on each group's first member.
  {
    obs::RecordEvent(obs::EventKind::kDifferPass, 2, applied);
    struct GroupDump {
      const Live* l;
      std::string bytes;
    };
    std::map<std::string, std::vector<GroupDump>> groups;
    for (Live& l : live) {
      if (l.v->dump_group.empty()) continue;
      store::ByteWriter w;
      Status st = l.e->DumpState(w);
      if (!st.ok()) {
        res.ok = false;
        res.failures.push_back(
            {l.v->label, applied, "DumpState failed: " + st.message()});
        continue;
      }
      groups[l.v->dump_group].push_back({&l, w.Take()});
    }
    for (const auto& [g, dumps] : groups) {
      for (size_t i = 1; i < dumps.size(); ++i) {
        if (dumps[i].bytes != dumps[0].bytes) {
          res.ok = false;
          res.failures.push_back(
              {"dump:" + g, applied,
               dumps[i].l->v->label + " vs " + dumps[0].l->v->label + ": " +
                   FirstByteDiff(dumps[i].bytes, dumps[0].bytes)});
        }
      }
      if (dumps.empty()) continue;
      std::unique_ptr<IvmEngine<IntRing>> fresh = dumps[0].l->v->make();
      store::ByteReader r(dumps[0].bytes);
      Status st = fresh->LoadState(r);
      if (!st.ok()) {
        res.ok = false;
        res.failures.push_back({"dump:" + g, applied,
                                "LoadState failed: " + st.message()});
        continue;
      }
      std::string again = DumpOf(*fresh);
      if (again != dumps[0].bytes) {
        res.ok = false;
        res.failures.push_back(
            {"dump:" + g, applied,
             "dump -> load -> dump not stable: " +
                 FirstByteDiff(again, dumps[0].bytes)});
      }
    }
    if (!res.ok) return res;
  }

  // SQL round-trip tier: the generated query rendered in BOTH dialects,
  // each parsed from scratch with a fresh VarRegistry — ParseQuery over
  // GenQuery::text, CompileSql over GenQuery::sql_text — and driven
  // through identical view-tree engines. Because the SQL compiler assigns
  // variable ids exactly as ParseQuery would for its ToCq() rendering, and
  // both twins pick their order via the shared EnumerableOrderFor rule,
  // the two trees must serialize to the same bytes at every checkpoint of
  // the stream. A divergence means the lowering (or the unparser) broke
  // the id-parity contract. The same SQL text also goes through the
  // command interpreter the server runs (serve::Session): REGISTER, one
  // BATCH per step, and at every checkpoint its ENUMERATE reply must equal
  // the SQL twin's output rendered the same way — parse, route, lift,
  // apply and render, without the transport.
  if (opts.sql && !q.sql_text.empty()) {
    obs::RecordEvent(obs::EventKind::kDifferPass, 5, applied);
    auto fail_sql = [&](size_t step, std::string detail) {
      res.ok = false;
      res.failures.push_back({"sql:twin", step, std::move(detail)});
    };
    VarRegistry cq_vars;
    auto cq = ParseQuery(q.text, &cq_vars);
    VarRegistry sql_vars;
    auto sq = sql::CompileSql(q.sql_text, &sql_vars);
    if (!cq.ok()) {
      fail_sql(0, "CQ reparse failed: " + cq.status().message());
      return res;
    }
    if (!sq.ok()) {
      fail_sql(0, "CompileSql(sql_text) failed: " + sq.status().message());
      return res;
    }
    auto make_twin =
        [&](const Query& qq) -> std::unique_ptr<ViewTreeEngine<IntRing>> {
      auto vo = incr::EnumerableOrderFor(qq);
      if (!vo.ok()) return nullptr;
      auto tree = ViewTree<IntRing>::Make(qq, *std::move(vo));
      if (!tree.ok()) return nullptr;
      return std::make_unique<ViewTreeEngine<IntRing>>(*std::move(tree));
    };
    auto a = make_twin(*cq);   // the CQ-parsed twin
    auto b = make_twin(sq->query);  // the SQL-compiled twin
    if (a == nullptr || b == nullptr) {
      fail_sql(0, "twin construction failed");
      return res;
    }
    // Structural id-parity first (names legitimately differ — the SQL
    // twin names bound variables after table columns): same free ids,
    // same atoms, same relation names, same schema ids.
    bool same = SchemaEq(sq->query.free(), cq->free()) &&
                sq->query.atoms().size() == cq->atoms().size();
    for (size_t i = 0; same && i < cq->atoms().size(); ++i) {
      same = sq->query.atoms()[i].relation == cq->atoms()[i].relation &&
             SchemaEq(sq->query.atoms()[i].schema, cq->atoms()[i].schema);
    }
    if (!same) {
      fail_sql(0, "lowered query mismatch: SQL twin is " +
                      sq->query.ToString(sql_vars) + ", CQ twin is " +
                      cq->ToString(cq_vars));
      return res;
    }
    serve::Session session;
    bool close = false;
    auto fail_session = [&](size_t step, std::string detail) {
      res.ok = false;
      res.failures.push_back({"sql:session", step, std::move(detail)});
    };
    const std::string registered =
        session.Execute("REGISTER " + q.sql_text, &close);
    if (registered != "OK q0") {
      fail_session(0, "REGISTER replied " + registered);
      return res;
    }
    const bool scalar = sq->query.free().empty();
    // Sharing: a second session registers the query twice, as generated
    // (COUNT) and as AVG over a column of a relation that is not
    // self-joined, so both are maintained by one AvgRing tree. Even seeds
    // register AVG first (COUNT reads its count component), odd seeds
    // COUNT first (AVG widens the COUNT tree while it is empty). Queries
    // without such a relation skip this tier. The reference is an
    // unshared AvgRing twin fed one batch per step, as the session is.
    std::string avg_sql;
    for (size_t k = 0; k < cq->atoms().size() && avg_sql.empty(); ++k) {
      const Atom& atom = cq->atoms()[k];
      size_t occurrences = 0;
      for (const Atom& other : cq->atoms()) {
        occurrences += other.relation == atom.relation ? 1 : 0;
      }
      if (occurrences != 1) continue;
      const size_t pos = q.sql_text.find("COUNT(*)");
      if (pos == std::string::npos) break;
      avg_sql = q.sql_text;
      std::string agg = "AVG(t";
      agg += std::to_string(k);
      agg += ".c";
      agg += std::to_string(opts.seed % atom.schema.size());
      agg += ")";
      avg_sql.replace(pos, 8, agg);
    }
    serve::Session shared;
    std::string count_id = "q0";
    std::string avg_id = "q1";
    sql::CompiledSql avg_compiled;
    std::unique_ptr<ViewTreeEngine<AvgRing>> avg_twin;
    if (!avg_sql.empty()) {
      VarRegistry avg_vars;
      auto ac = sql::CompileSql(avg_sql, &avg_vars);
      auto vo = ac.ok() ? incr::EnumerableOrderFor(ac->query)
                        : StatusOr<VariableOrder>(ac.status());
      auto tree = vo.ok() ? ViewTree<AvgRing>::Make(ac->query, *std::move(vo))
                          : StatusOr<ViewTree<AvgRing>>(vo.status());
      const std::string count_reg = "REGISTER " + q.sql_text;
      const std::string avg_reg = "REGISTER " + avg_sql;
      if (opts.seed % 2 == 0) std::swap(count_id, avg_id);
      const bool avg_first = avg_id == "q0";
      const std::string first =
          shared.Execute(avg_first ? avg_reg : count_reg, &close);
      const std::string second =
          shared.Execute(avg_first ? count_reg : avg_reg, &close);
      if (!tree.ok() || first != "OK q0" || second != "OK q1" ||
          shared.num_trees() != 1) {
        std::string detail = "REGISTER of ";
        detail += avg_sql;
        detail += " replied ";
        detail += first;
        detail += " / ";
        detail += second;
        detail += ", trees ";
        detail += std::to_string(shared.num_trees());
        detail += ", twin ";
        detail += tree.status().ToString();
        res.ok = false;
        res.failures.push_back({"sql:session-shared", 0, std::move(detail)});
        return res;
      }
      avg_compiled = *std::move(ac);
      avg_twin =
          std::make_unique<ViewTreeEngine<AvgRing>>(*std::move(tree));
    }
    size_t step = 0;
    for (const StreamStep& s : stream.steps) {
      ApplyStep(*a, s, /*batch_mode=*/true);
      ApplyStep(*b, s, /*batch_mode=*/true);
      const std::string cmd = BatchCommand(s);
      const std::string batch = session.Execute(cmd, &close);
      ++step;
      if (batch.rfind("OK deltas=", 0) != 0) {
        fail_session(step, "BATCH replied " + batch);
        return res;
      }
      if (avg_twin != nullptr) {
        shared.Execute(cmd, &close);
        std::vector<Delta<AvgRing>> lifted;
        for (const Delta<IntRing>& d : s.deltas) {
          lifted.push_back(Delta<AvgRing>{
              d.relation, d.tuple,
              sql::LiftPair(avg_compiled, d.relation, d.tuple, d.delta)});
        }
        avg_twin->ApplyBatch(std::span<const Delta<AvgRing>>(lifted));
      }
      const bool checkpoint =
          (opts.check_every != 0 && step % opts.check_every == 0) ||
          step == stream.steps.size();
      if (!checkpoint) continue;
      std::string da = DumpOf(*a);
      std::string db = DumpOf(*b);
      if (da != db) {
        fail_sql(step, "SQL twin state diverged from CQ twin: " +
                           FirstByteDiff(db, da));
        return res;
      }
      const std::string want = EnumerateReply(*b, scalar);
      const std::string got = session.Execute("ENUMERATE q0", &close);
      if (got != want) {
        fail_session(step, "ENUMERATE q0 differs from the SQL twin: " +
                               FirstByteDiff(got, want));
        return res;
      }
      const std::string want3 = EnumerateReply(*b, scalar, 3);
      const std::string got3 = session.Execute("ENUMERATE q0 3", &close);
      if (got3 != want3) {
        res.ok = false;
        res.failures.push_back({"sql:session-limit", step,
                                "ENUMERATE q0 3 differs from the SQL twin: " +
                                    FirstByteDiff(got3, want3)});
        return res;
      }
      if (avg_twin == nullptr) continue;
      // Per read: the shared session's reply, and what it must equal. The
      // COUNT query's full read equals the IntRing SQL twin's. Its limited
      // read follows the AvgRing tree's dense order, which can differ from
      // an IntRing tree's: within one batch an M-delta key whose count
      // cancels while its sum does not stays in place in the AvgRing
      // delta, but leaves the IntRing one and comes back at its end.
      const std::pair<std::string, std::string> shared_reads[] = {
          {shared.Execute("ENUMERATE " + count_id, &close), want},
          {shared.Execute("ENUMERATE " + count_id + " 3", &close),
           EnumerateReply(*avg_twin, scalar, 3)},
          {shared.Execute("ENUMERATE " + avg_id, &close),
           EnumerateReply(*avg_twin, scalar, SIZE_MAX, false)},
          {shared.Execute("ENUMERATE " + avg_id + " 3", &close),
           EnumerateReply(*avg_twin, scalar, 3, false)},
      };
      const char* const what[] = {"COUNT", "COUNT limit 3", "AVG",
                                  "AVG limit 3"};
      for (size_t r = 0; r < 4; ++r) {
        if (shared_reads[r].first == shared_reads[r].second) continue;
        std::string detail = what[r];
        detail += " read of the shared tree (";
        detail += avg_sql;
        detail += ") differs: ";
        detail += FirstByteDiff(shared_reads[r].first, shared_reads[r].second);
        res.ok = false;
        res.failures.push_back({"sql:session-shared", step, std::move(detail)});
        return res;
      }
    }
  }

  // Snapshot-isolation pass (tier 4): reader threads enumerate pinned
  // snapshots while the maintainer re-applies the stream, one ApplyBatch
  // (hence one published epoch) per non-empty step. Each observation must
  // be bit-equal to the sequential ledger at its epoch, and per-reader
  // epochs must be monotone. The final main-thread check (epoch count +
  // content) is what makes an injected torn publish fail deterministically
  // even when no reader happened to sample the interloper epoch. Odd seeds
  // retain only 2 epochs, so a pinned reader makes the maintainer wait at
  // the start of its next batch; with one thread the final state must also
  // dump the ledger's bytes (replayed versions are bit-identical).
  if (opts.readers > 0) {
    obs::RecordEvent(obs::EventKind::kDifferPass, 3, opts.readers);
    const Schema vt_out = MakeTree(q).OutputSchema();
    ViewTreeEngine<IntRing> ledger(MakeTree(q));
    if (ledger.tree().plan().CanEnumerate().ok()) {
      // One applied batch per non-empty step: epoch base + k <-> prefix of
      // k applied steps.
      std::vector<const StreamStep*> steps;
      for (const StreamStep& s : stream.steps) {
        if (!s.deltas.empty()) steps.push_back(&s);
      }
      std::vector<OutMap> expected;
      expected.reserve(steps.size() + 1);
      expected.push_back(ProjectedOutput(ledger, vt_out, free));
      for (const StreamStep* s : steps) {
        ledger.ApplyBatch(std::span<const Delta<IntRing>>(s->deltas));
        expected.push_back(ProjectedOutput(ledger, vt_out, free));
      }

      ViewTreeEngine<IntRing> eng(MakeTree(q));
      EngineOptions copts;
      copts.threads = opts.threads;
      copts.morsel_bytes = opts.morsel_bytes;
      copts.snapshot_reads = true;
      copts.max_retained_epochs = opts.seed % 2 == 1 ? 2 : 8;
      eng.Configure(copts);
      const ViewTree<IntRing>& tree = eng.tree();
      const uint64_t base = tree.published_epoch();

      auto project = [&](const ViewTreeSnapshot<IntRing>& snap) {
        OutMap out;
        auto pos = ProjectionPositions(vt_out, free);
        for (ViewTreeEnumerator<IntRing> it = snap.Enumerate(); it.Valid();
             it.Next()) {
          Tuple pr;
          pr.reserve(pos.size());
          for (uint32_t i : pos) pr.push_back(it.tuple()[i]);
          out[pr] += it.payload();
        }
        for (auto it = out.begin(); it != out.end();) {
          if (it->second == 0) {
            it = out.erase(it);
          } else {
            ++it;
          }
        }
        return out;
      };

      std::mutex fail_mu;
      std::atomic<bool> stop{false};
      std::atomic<bool> failed{false};
      auto record_fail = [&](std::string label, std::string detail) {
        std::lock_guard<std::mutex> lock(fail_mu);
        if (!failed.exchange(true)) {
          res.ok = false;
          res.failures.push_back({std::move(label), 0, std::move(detail)});
        }
      };

      std::vector<std::thread> pool;
      pool.reserve(opts.readers);
      for (size_t r = 0; r < opts.readers; ++r) {
        pool.emplace_back([&, r] {
          const std::string label = "concurrent:reader" + std::to_string(r);
          uint64_t last = 0;
          while (!stop.load(std::memory_order_acquire) &&
                 !failed.load(std::memory_order_relaxed)) {
            ViewTreeSnapshot<IntRing> snap = tree.Snapshot();
            const uint64_t e = snap.epoch();
            if (e < last) {
              record_fail(label, "epoch went backwards: " +
                                     std::to_string(e) + " after " +
                                     std::to_string(last));
              return;
            }
            last = e;
            if (e < base || e - base >= expected.size()) {
              record_fail(label,
                          "observed epoch " + std::to_string(e) +
                              " matches no applied step (torn publish?)");
              return;
            }
            OutMap got = project(snap);
            if (got != expected[e - base]) {
              record_fail(label, "at epoch " + std::to_string(e) + ": " +
                                     DescribeDiff(got, expected[e - base]));
              return;
            }
          }
        });
      }

      for (size_t i = 0; i < steps.size(); ++i) {
        if (failed.load(std::memory_order_relaxed)) break;
        std::span<const Delta<IntRing>> deltas(steps[i]->deltas);
        if (i == opts.inject_torn_step && deltas.size() >= 2) {
          const size_t m = deltas.size() / 2;
          eng.ApplyBatch(deltas.subspan(0, m));
          eng.ApplyBatch(deltas.subspan(m));
        } else {
          eng.ApplyBatch(deltas);
        }
      }
      stop.store(true, std::memory_order_release);
      for (std::thread& t : pool) t.join();

      if (res.ok) {
        ViewTreeSnapshot<IntRing> snap = tree.Snapshot();
        if (snap.epoch() != base + steps.size()) {
          res.ok = false;
          res.failures.push_back(
              {"concurrent:final", stream.steps.size(),
               "published " + std::to_string(snap.epoch() - base) +
                   " epochs for " + std::to_string(steps.size()) +
                   " applied steps (torn publish?)"});
        } else if (project(snap) != expected.back()) {
          res.ok = false;
          res.failures.push_back(
              {"concurrent:final", stream.steps.size(),
               DescribeDiff(project(snap), expected.back())});
        } else if (opts.threads <= 1 && DumpOf(eng) != DumpOf(ledger)) {
          res.ok = false;
          res.failures.push_back(
              {"concurrent:final", stream.steps.size(),
               "snapshot engine state diverged from the ledger: " +
                   FirstByteDiff(DumpOf(eng), DumpOf(ledger))});
        }
      }
    }
    if (!res.ok) return res;
  }

  if (!opts.durable || opts.scratch_dir.empty()) return res;
  obs::RecordEvent(obs::EventKind::kDifferPass, 4, stream.steps.size());

  // Durability passes. Randomness (checkpoint step, kill offset) comes
  // from the differ's own seed, so a failing (query, stream, seed) triple
  // replays exactly.
  Rng rng(opts.seed ^ 0x64696666ULL);  // "diff"
  const std::string dir = opts.scratch_dir;
  const Schema vt_out = MakeTree(q).OutputSchema();
  EngineOptions dopts;
  dopts.durability_dir = dir;
  dopts.fsync = false;  // process-death durability is what we test
  // Drive the durable passes through the parallel morsel path too: Open
  // configures the inner engine with these options after recovery, and
  // serialization is canonical, so live, recovered, and shadow engines
  // dump identical bytes as long as they share one (threads, morsel)
  // configuration.
  dopts.threads = opts.threads;
  dopts.morsel_bytes = opts.morsel_bytes;
  auto make_inner = [&q]() -> std::unique_ptr<IvmEngine<IntRing>> {
    return std::make_unique<ViewTreeEngine<IntRing>>(MakeTree(q));
  };
  auto fail = [&](std::string label, std::string detail) {
    res.ok = false;
    res.failures.push_back({std::move(label), 0, std::move(detail)});
  };

  // Pass 1: full recovery — the live engine's state (and the dictionary,
  // when the stream interned strings) must be reproduced byte-for-byte
  // from the snapshot (if a random checkpoint happened) plus the log.
  {
    ResetScratchDir(dir);
    Dictionary dict;
    auto d = DurableEngine<IntRing>::Open(make_inner(), dopts, &dict);
    if (!d.ok()) {
      fail("durable:open", d.status().message());
      return res;
    }
    const bool do_ckpt = !stream.steps.empty() && rng.Chance(0.5);
    const size_t ckpt_at =
        stream.steps.empty() ? 0 : rng.Uniform(stream.steps.size());
    size_t interned = 0;
    for (size_t i = 0; i < stream.steps.size(); ++i) {
      const StreamStep& s = stream.steps[i];
      for (uint32_t j = 0; j < s.dict_grow; ++j) {
        dict.Intern("w" + std::to_string(interned++));
      }
      ApplyStep(**d, s, /*batch_mode=*/true);
      if (do_ckpt && i == ckpt_at) {
        Status st = (*d)->Checkpoint();
        if (!st.ok()) fail("durable:checkpoint", st.message());
      }
    }
    Status st = (*d)->Sync();
    if (!st.ok()) fail("durable:sync", st.message());
    OutMap got = ProjectedOutput(**d, vt_out, free);
    if (got != want) fail("durable:live", DescribeDiff(got, want));
    const std::string live_bytes = DumpOf(**d);
    d->reset();  // close the WAL

    Dictionary dict2;
    auto r2 = DurableEngine<IntRing>::Open(make_inner(), dopts, &dict2);
    if (!r2.ok()) {
      fail("durable:reopen", r2.status().message());
      return res;
    }
    std::string rec_bytes = DumpOf(**r2);
    if (rec_bytes != live_bytes) {
      fail("durable:full-recovery", FirstByteDiff(rec_bytes, live_bytes));
    }
    if (dict2.size() != dict.size()) {
      fail("durable:dict", "recovered " + std::to_string(dict2.size()) +
                               " strings, interned " +
                               std::to_string(dict.size()));
    }
  }

  // Pass 2: kill at a random LSN — truncate the log at a random byte and
  // recover; the result must equal a fresh engine fed exactly the
  // surviving prefix of steps. No dictionary here: without kDict records,
  // snapshot LSN + replayed record count *is* the surviving step count.
  {
    ResetScratchDir(dir);
    auto d = DurableEngine<IntRing>::Open(make_inner(), dopts, nullptr);
    if (!d.ok()) {
      fail("durable:open", d.status().message());
      return res;
    }
    const bool do_ckpt = !stream.steps.empty() && rng.Chance(0.5);
    const size_t ckpt_at =
        stream.steps.empty() ? 0 : rng.Uniform(stream.steps.size());
    for (size_t i = 0; i < stream.steps.size(); ++i) {
      ApplyStep(**d, stream.steps[i], /*batch_mode=*/true);
      if (do_ckpt && i == ckpt_at) {
        Status st = (*d)->Checkpoint();
        if (!st.ok()) fail("durable:checkpoint", st.message());
      }
    }
    Status st = (*d)->Sync();
    if (!st.ok()) fail("durable:sync", st.message());
    d->reset();

    const std::string wal_path = store::WalPath(dir);
    const std::string full = ReadFileBytes(wal_path);
    const size_t header = WalHeaderBytes();
    INCR_CHECK(full.size() >= header);
    const size_t cut = header + rng.Uniform(full.size() - header + 1);
    WriteFileBytes(wal_path, full.substr(0, cut));

    auto rec = DurableEngine<IntRing>::Open(make_inner(), dopts, nullptr);
    if (!rec.ok()) {
      fail("durable:kill-open", rec.status().message());
      return res;
    }
    const store::RecoveryInfo& info = (*rec)->recovery_info();
    const size_t k =
        static_cast<size_t>(info.snapshot_lsn + info.replayed_records);
    if (k > stream.steps.size()) {
      fail("durable:kill-lsn",
           "recovered " + std::to_string(k) + " of " +
               std::to_string(stream.steps.size()) + " steps");
      return res;
    }
    ViewTreeEngine<IntRing> shadow(MakeTree(q));
    shadow.Configure(dopts);  // same threads/morsel as the durable engine
    for (size_t i = 0; i < k; ++i) {
      ApplyStep(shadow, stream.steps[i], /*batch_mode=*/true);
    }
    std::string rec_bytes = DumpOf(**rec);
    std::string shadow_bytes = DumpOf(shadow);
    if (rec_bytes != shadow_bytes) {
      fail("durable:kill-recover",
           "k=" + std::to_string(k) + " cut=" + std::to_string(cut) + ": " +
               FirstByteDiff(rec_bytes, shadow_bytes));
    }
  }

  return res;
}

}  // namespace check
}  // namespace incr
