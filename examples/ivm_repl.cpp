// An interactive IVM shell: define a query, pick a maintenance engine,
// stream updates (single-tuple or batched), and read the maintained
// output — the whole library behind a small command language. Runs a
// scripted demo session when stdin is not a terminal or on EOF.
//
//   query Q(A, B) = R(A, B), S(B)        define + classify + build engine
//   engine <kind>                        eager-fact | eager-list |
//                                        lazy-fact | lazy-list | view-tree
//                                        (rebuilds empty; view-tree also
//                                        serves non-enumerable plans)
//   +R 1 2          / +R 1 2 x3          insert (with multiplicity)
//   -R 1 2                               delete
//   batch <file>                         apply a file of deltas as one
//                                        batch: `Rel v1 .. vn [xN]` per
//                                        line, optional +/- prefix
//   threads <n>                          batch maintenance on n threads
//                                        (1 = sequential, 0 = hardware;
//                                        results are thread-count
//                                        independent)
//   morsel <bytes>                       work-stealing morsel size for
//                                        parallel batches (0 = cache-sized
//                                        default; results are morsel-size
//                                        independent)
//   storage heap                         view state on the heap (default)
//   storage paged <dir> [pool] [page]    view state in a buffer pool of
//                                        [pool] bytes backed by a spill
//                                        file under <dir>; cold state pages
//                                        out (rebuilds empty)
//   durable <dir>                        write-ahead-log every update to
//                                        <dir> and recover state from the
//                                        snapshot + log found there
//   checkpoint                           snapshot engine state to the
//                                        durable dir and truncate the log
//   serve <readers> [millis]             spawn N snapshot-reader threads
//                                        enumerating for ~millis while
//                                        this thread applies a churn load
//                                        (snapshot-capable engines serve
//                                        lock-free; others fall back to a
//                                        mutex-serialized enumeration)
//   options                              show the current EngineOptions
//   enum                                 enumerate the current output
//   agg                                  the full aggregate (count)
//   classify                             structural report for the query
//   explain [analyze] [json]             plan report: per-node cost class
//                                        (O(1) vs partially bound scans),
//                                        ring, shard/morsel layout; analyze
//                                        joins live per-node stats and
//                                        engine totals
//   stats [text|json] [reset]            runtime metrics snapshot (and
//                                        optionally reset counters)
//   metrics <path> [ms] / metrics off    periodic Prometheus text-format
//                                        export of the metrics registry
//   trace on <file> / trace off          Chrome trace_event recording
//                                        (open the file in
//                                        chrome://tracing or Perfetto)
//   help / quit
//
// Values may be integers or identifiers (interned via Dictionary).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "incr/incr.h"

using namespace incr;

namespace {

struct Session {
  VarRegistry vars;
  Dictionary dict;
  std::optional<Query> query;
  std::unique_ptr<IvmEngine<IntRing>> engine;
  std::string kind = "eager-fact";
  // One options struct drives every engine rebuild (threads, shards,
  // durability); seeded from the environment, mutated by commands.
  EngineOptions opts = EngineOptions::FromEnv();
  Schema out_schema;  // free vars in the tree's enumeration order
  bool plan_o1_updates = false;
  bool plan_can_enum = false;

  // The one place engine/storage Status failures reach the terminal, so
  // every error renders the same "<path>: <detail>"-style message the
  // Status carries.
  void PrintError(const Status& st) {
    std::printf("error: %s\n", st.ToString().c_str());
  }

  StatusOr<ViewTree<IntRing>> MakeTree() {
    if (IsHierarchical(*query)) {
      return ViewTree<IntRing>::Make(*query, opts.storage);
    }
    // Fall back to a path order over all variables.
    Schema all = query->AllVars();
    auto vo = VariableOrder::FromPath(
        *query, std::vector<Var>(all.begin(), all.end()));
    if (!vo.ok()) return vo.status();
    return ViewTree<IntRing>::Make(*query, *std::move(vo), opts.storage);
  }

  // (Re)builds `engine` of the requested kind over an empty database.
  Status BuildEngine() {
    auto t = MakeTree();
    if (!t.ok()) return t.status();
    plan_o1_updates = t->plan().AllProgramsConstantTime();
    plan_can_enum = t->plan().CanEnumerate().ok();
    out_schema = t->OutputSchema();
    if (!plan_can_enum && kind != "view-tree") {
      std::printf("note: plan is not enumerable; using the view-tree "
                  "engine (agg only)\n");
      kind = "view-tree";
    }
    std::unique_ptr<IvmEngine<IntRing>> inner;
    if (kind == "view-tree") {
      inner = std::make_unique<ViewTreeEngine<IntRing>>(*std::move(t), opts);
    } else if (kind == "eager-fact") {
      inner = std::make_unique<EagerFactStrategy<IntRing>>(*std::move(t),
                                                           opts);
    } else if (kind == "eager-list") {
      inner = std::make_unique<EagerListStrategy<IntRing>>(*std::move(t),
                                                           opts);
    } else if (kind == "lazy-fact") {
      inner = std::make_unique<LazyFactStrategy<IntRing>>(*std::move(t),
                                                          opts);
    } else if (kind == "lazy-list") {
      inner = std::make_unique<LazyListStrategy<IntRing>>(*std::move(t),
                                                          opts);
    } else {
      return Status::InvalidArgument("unknown engine kind '" + kind + "'");
    }
    if (opts.durability_dir.empty()) {
      engine = std::move(inner);
      return Status::Ok();
    }
    auto durable =
        DurableEngine<IntRing>::Open(std::move(inner), opts, &dict);
    if (!durable.ok()) return durable.status();
    const auto& info = (*durable)->recovery_info();
    if (info.snapshot_loaded || info.replayed_records > 0) {
      std::printf("recovered: snapshot lsn %llu, replayed %llu record(s) "
                  "(%llu delta(s), %llu dict string(s))%s\n",
                  static_cast<unsigned long long>(info.snapshot_lsn),
                  static_cast<unsigned long long>(info.replayed_records),
                  static_cast<unsigned long long>(info.replayed_deltas),
                  static_cast<unsigned long long>(info.dict_entries_restored),
                  info.wal_torn_tail ? "; dropped a torn log tail" : "");
    }
    engine = *std::move(durable);
    return Status::Ok();
  }

  void SetThreads(const std::string& arg) {
    char* end = nullptr;
    long n = std::strtol(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0' || n < 0) {
      std::printf("usage: threads <n>  (0 = hardware default)\n");
      return;
    }
    opts.threads = static_cast<size_t>(n);
    if (engine) engine->Configure(opts);
    std::printf("batch maintenance threads: %zu%s\n", opts.threads,
                opts.threads == 0 ? " (hardware default)" : "");
  }

  void SetMorsel(const std::string& arg) {
    char* end = nullptr;
    long n = std::strtol(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0' || n < 0) {
      std::printf("usage: morsel <bytes>  (0 = cache-sized default)\n");
      return;
    }
    opts.morsel_bytes = static_cast<size_t>(n);
    if (engine) engine->Configure(opts);
    std::printf("morsel size: %zu byte(s)%s\n", opts.morsel_bytes,
                opts.morsel_bytes == 0 ? " (cache-sized default)" : "");
  }

  // storage heap | storage paged <spill_dir> [pool_bytes] [page_bytes]:
  // selects the view-state backend for the NEXT engine build and rebuilds
  // immediately when a query is live (state is cleared, like 'engine').
  void Storage(const std::string& arg) {
    std::istringstream in(arg);
    std::string backend;
    in >> backend;
    StorageOptions next = opts.storage;
    if (backend == "heap") {
      next.backend = StorageBackend::kHeap;
    } else if (backend == "paged") {
      std::string dir;
      if (!(in >> dir)) {
        std::printf("usage: storage paged <spill_dir> [pool_bytes] "
                    "[page_bytes]\n");
        return;
      }
      next.backend = StorageBackend::kPaged;
      next.spill_dir = dir;
      long long v = 0;
      if (in >> v && v > 0) next.buffer_pool_bytes = static_cast<size_t>(v);
      if (in >> v && v > 0) next.page_bytes = static_cast<size_t>(v);
    } else {
      std::printf("usage: storage heap | storage paged <spill_dir> "
                  "[pool_bytes] [page_bytes]\n");
      return;
    }
    opts.storage = next.Validated();
    if (query) {
      Status st = BuildEngine();
      if (!st.ok()) {
        PrintError(st);
        return;
      }
      std::printf("storage backend: %s (state cleared; replay your "
                  "updates)\n",
                  opts.storage.paged() ? "paged" : "heap");
    } else {
      std::printf("storage backend: %s; takes effect when a query is "
                  "defined\n",
                  opts.storage.paged() ? "paged" : "heap");
    }
  }

  // Enables durability in `dir`: the engine is rebuilt empty, then restored
  // from the snapshot + WAL found there (so pointing two sessions at the
  // same dir hands state from one to the next).
  void Durable(const std::string& dir) {
    if (dir.empty()) {
      std::printf("usage: durable <dir>\n");
      return;
    }
    opts.durability_dir = dir;
    if (!query) {
      std::printf("durability dir set; takes effect when a query is "
                  "defined\n");
      return;
    }
    Status st = BuildEngine();
    if (!st.ok()) {
      PrintError(st);
      opts.durability_dir.clear();
      return;
    }
    std::printf("durable engine: %s (logging to %s)\n", engine->name(),
                dir.c_str());
  }

  void Checkpoint() {
    auto* durable = dynamic_cast<DurableEngine<IntRing>*>(engine.get());
    if (durable == nullptr) {
      std::printf("no durable engine; use 'durable <dir>' first\n");
      return;
    }
    Status st = durable->Checkpoint();
    if (!st.ok()) {
      PrintError(st);
      return;
    }
    std::printf("checkpoint written at lsn %llu; log truncated\n",
                static_cast<unsigned long long>(durable->last_lsn()));
  }

  // serve <readers> [millis]: N reader threads enumerate snapshots while
  // this thread applies an insert/delete churn on the first atom (net-zero,
  // so the session's output is unchanged afterwards). Engines with a real
  // snapshot path (view-tree, possibly under the durable wrapper) serve
  // readers lock-free from pinned epochs; anything else degrades to a
  // mutex-serialized enumeration so the demo stays data-race free.
  void Serve(const std::string& arg) {
    if (!engine || !query) {
      std::printf("define a query first\n");
      return;
    }
    std::istringstream in(arg);
    size_t n_readers = 0;
    long long millis = 1000;
    if (!(in >> n_readers) || n_readers == 0) {
      std::printf("usage: serve <readers> [millis]\n");
      return;
    }
    long long m = 0;
    if (in >> m && m > 0) millis = m;

    if (!opts.snapshot_reads) {
      opts.snapshot_reads = true;
      engine->Configure(opts);
    }
    IvmEngine<IntRing>* target = engine.get();
    if (auto* d = dynamic_cast<DurableEngine<IntRing>*>(target)) {
      target = &d->inner();
    }
    auto* vt = dynamic_cast<ViewTreeEngine<IntRing>*>(target);
    const bool lock_free = vt != nullptr && vt->tree().snapshots_enabled();

    std::mutex mu;  // fallback path only
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> n_enums{0};
    std::atomic<uint64_t> n_tuples{0};
    std::vector<std::thread> readers;
    readers.reserve(n_readers);
    for (size_t r = 0; r < n_readers; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          size_t got;
          if (lock_free) {
            got = engine->EnumerateSnapshot(nullptr);
          } else {
            std::lock_guard<std::mutex> lock(mu);
            got = engine->EnumerateSnapshot(nullptr);
          }
          n_tuples.fetch_add(got, std::memory_order_relaxed);
          n_enums.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    const Atom& a = query->atoms()[0];
    Tuple churn_t;
    for (size_t i = 0; i < a.schema.size(); ++i) churn_t.push_back(0);
    uint64_t churn = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count() < static_cast<double>(millis)) {
      if (lock_free) {
        engine->Update(a.relation, churn_t, +1);
        engine->Update(a.relation, churn_t, -1);
      } else {
        std::lock_guard<std::mutex> lock(mu);
        engine->Update(a.relation, churn_t, +1);
        engine->Update(a.relation, churn_t, -1);
      }
      churn += 2;
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("served %llu enumeration(s) (%llu tuple(s)) from %zu "
                "reader(s) in %.2f s [%s] while applying %llu update(s); "
                "%.0f enums/s, aggregate = %lld\n",
                static_cast<unsigned long long>(n_enums.load()),
                static_cast<unsigned long long>(n_tuples.load()), n_readers,
                s, lock_free ? "lock-free snapshots" : "mutex fallback",
                static_cast<unsigned long long>(churn),
                s > 0 ? static_cast<double>(n_enums.load()) / s : 0.0,
                static_cast<long long>(Aggregate()));
  }

  void Options() {
    std::printf("  threads:            %zu%s\n", opts.threads,
                opts.threads == 0 ? " (hardware default)" : "");
    std::printf("  shards:             %zu%s\n", opts.shards,
                opts.shards == 0 ? " (process default)" : "");
    std::printf("  morsel_bytes:       %zu%s\n", opts.morsel_bytes,
                opts.morsel_bytes == 0 ? " (cache-sized default)" : "");
    std::printf("  obs:                %s\n",
                opts.obs.has_value() ? (*opts.obs ? "on" : "off")
                                     : (obs::Enabled() ? "on (process)"
                                                       : "off (process)"));
    std::printf("  durability_dir:     %s\n",
                opts.durability_dir.empty() ? "(none)"
                                            : opts.durability_dir.c_str());
    std::printf("  group_commit_us:    %u\n", opts.group_commit_window_us);
    std::printf("  fsync:              %s\n", opts.fsync ? "on" : "off");
    std::printf("  snapshot_reads:     %s\n",
                opts.snapshot_reads ? "on" : "off");
    std::printf("  max_retained_epochs: %zu\n", opts.max_retained_epochs);
    std::printf("  storage.backend:    %s\n",
                opts.storage.paged() ? "paged" : "heap");
    if (opts.storage.paged()) {
      std::printf("  storage.pool_bytes: %zu\n",
                  opts.storage.buffer_pool_bytes);
      std::printf("  storage.page_bytes: %zu\n", opts.storage.page_bytes);
      std::printf("  storage.spill_dir:  %s\n",
                  opts.storage.spill_dir.c_str());
    }
  }

  void Classify() {
    if (!query) {
      std::printf("no query defined\n");
      return;
    }
    std::printf("  %s\n", query->ToString(vars).c_str());
    std::printf("  hierarchical:    %s\n",
                IsHierarchical(*query) ? "yes" : "no");
    std::printf("  q-hierarchical:  %s\n",
                IsQHierarchical(*query) ? "yes" : "no");
    std::printf("  alpha-acyclic:   %s\n",
                IsAlphaAcyclic(*query) ? "yes" : "no");
    std::printf("  free-connex:     %s\n",
                IsFreeConnex(*query) ? "yes" : "no");
    if (engine) {
      std::printf("  engine:          %s\n", engine->name());
      std::printf("  O(1) updates:    %s\n", plan_o1_updates ? "yes" : "no");
      std::printf("  O(1) delay enum: %s\n", plan_can_enum ? "yes" : "no");
    }
  }

  void Define(const std::string& text) {
    auto q = ParseQuery(text, &vars);
    if (!q.ok()) {
      PrintError(q.status());
      return;
    }
    query = *std::move(q);
    Status st = BuildEngine();
    if (!st.ok()) {
      PrintError(st);
      query.reset();
      engine.reset();
      return;
    }
    Classify();
  }

  // `sql <stmt>`: compile a SQL statement (inline CREATE TABLE DDL +
  // SELECT) through the sql/ front door, print the canonical CQ lowering,
  // and install that CQ as the session query. The REPL's engines maintain
  // Z payloads, so SUM/AVG/COVAR statements lower to their COUNT twin
  // here — the server (tools/ivm_server) maintains the lifted rings.
  void DefineSql(const std::string& text) {
    auto c = sql::CompileSql(text, &vars);
    if (!c.ok()) {
      PrintError(c.status());
      return;
    }
    std::printf("  lowered: %s\n", c->ToCq().c_str());
    if (c->agg != sql::SqlAggregate::kNone &&
        c->agg != sql::SqlAggregate::kCount) {
      std::printf("  note: %s needs a lifted ring; the REPL maintains the "
                  "COUNT twin (use tools/ivm_server for the full "
                  "aggregate)\n",
                  sql::SqlAggregateName(c->agg));
    }
    query = std::move(c->query);
    Status st = BuildEngine();
    if (!st.ok()) {
      PrintError(st);
      query.reset();
      engine.reset();
      return;
    }
    Classify();
  }

  void SwitchEngine(const std::string& new_kind) {
    if (!query) {
      std::printf("define a query first\n");
      return;
    }
    // Validate before rebuilding: a typo must not wipe the session state.
    if (new_kind != "view-tree" && new_kind != "eager-fact" &&
        new_kind != "eager-list" && new_kind != "lazy-fact" &&
        new_kind != "lazy-list") {
      std::printf("unknown engine kind '%s'; try 'help'\n", new_kind.c_str());
      return;
    }
    kind = new_kind;
    Status st = BuildEngine();
    if (!st.ok()) {
      PrintError(st);
      return;
    }
    std::printf("engine: %s (state cleared; replay your updates)\n",
                engine->name());
  }

  // Parses "Rel v1 .. vn [xN]" (optional +/- prefix on Rel) into a delta.
  // Returns false and prints a diagnostic on malformed input.
  bool ParseDelta(const std::string& line, Delta<IntRing>* out) {
    std::istringstream in(line);
    std::string rel, tok;
    in >> rel;
    int64_t sign = 1;
    if (!rel.empty() && (rel[0] == '+' || rel[0] == '-')) {
      if (rel[0] == '-') sign = -1;
      rel = rel.substr(1);
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
      StatusOr<Value> v = ParseToken(tok, dict);
      if (!v.ok()) {
        PrintError(v.status());
        return false;
      }
      t.push_back(*v);
    }
    bool known = false;
    for (const Atom& a : query->atoms()) {
      if (a.relation == rel) {
        known = true;
        if (a.schema.size() != t.size()) {
          std::printf("arity mismatch: %s has %zu columns\n", rel.c_str(),
                      a.schema.size());
          return false;
        }
      }
    }
    if (!known) {
      std::printf("unknown relation '%s'\n", rel.c_str());
      return false;
    }
    *out = Delta<IntRing>{rel, std::move(t), sign * mult};
    return true;
  }

  void Update(const std::string& line, int64_t sign) {
    if (!engine) {
      std::printf("define a query first\n");
      return;
    }
    Delta<IntRing> d;
    if (!ParseDelta(line, &d)) return;
    engine->Update(d.relation, d.tuple, sign * d.delta);
    std::printf("ok (aggregate = %lld)\n",
                static_cast<long long>(Aggregate()));
  }

  // Reads a file of deltas and applies it as ONE batch through the
  // engine's bulk path (node-at-a-time for view trees).
  void Batch(const std::string& path) {
    if (!engine) {
      std::printf("define a query first\n");
      return;
    }
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open '%s'\n", path.c_str());
      return;
    }
    std::vector<Delta<IntRing>> deltas;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      Delta<IntRing> d;
      if (!ParseDelta(line.substr(start), &d)) {
        std::printf("  (at %s:%zu; batch aborted)\n", path.c_str(), lineno);
        return;
      }
      deltas.push_back(std::move(d));
    }
    auto t0 = std::chrono::steady_clock::now();
    engine->ApplyBatch(deltas);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    double per_s = ms > 0 ? deltas.size() / ms * 1e3 : 0;
    std::printf("applied %zu delta(s) in %.3f ms (%.0f deltas/s), "
                "aggregate = %lld\n",
                deltas.size(), ms, per_s,
                static_cast<long long>(Aggregate()));
  }

  int64_t Aggregate() {
    // The view-tree fallback maintains the aggregate even when the output
    // is not enumerable; every other engine kind has an enumerable plan,
    // and the sum of output payloads IS the aggregate.
    IvmEngine<IntRing>* target = engine.get();
    if (auto* d = dynamic_cast<DurableEngine<IntRing>*>(target)) {
      target = &d->inner();
    }
    if (auto* vt = dynamic_cast<ViewTreeEngine<IntRing>*>(target)) {
      return vt->tree().Aggregate();
    }
    int64_t agg = 0;
    engine->Enumerate([&](const Tuple&, const int64_t& p) { agg += p; });
    return agg;
  }

  void Enumerate() {
    if (!engine) {
      std::printf("define a query first\n");
      return;
    }
    if (!plan_can_enum) {
      std::printf("output is not enumerable with this plan; agg is still "
                  "maintained\n");
      return;
    }
    std::string header;
    for (Var v : out_schema) header += vars.Name(v) + " ";
    std::printf("  %s-> payload\n", header.c_str());
    size_t n = 0;
    size_t total = engine->Enumerate([&](const Tuple& t, const int64_t& p) {
      if (n >= 50) return;
      std::string row;
      for (Value v : t) row += RenderToken(v, dict) + " ";
      std::printf("  %s-> %lld\n", row.c_str(), static_cast<long long>(p));
      ++n;
    });
    if (total > n) std::printf("  ... (output truncated at 50 rows)\n");
    std::printf("  (%zu row(s))\n", total);
  }

  void Explain(const std::string& args) {
    if (!engine || !query) {
      std::printf("define a query first\n");
      return;
    }
    bool analyze = false;
    bool json = false;
    std::istringstream in(args);
    std::string tok;
    while (in >> tok) {
      if (tok == "analyze") {
        analyze = true;
      } else if (tok == "json") {
        json = true;
      } else {
        std::printf("usage: explain [analyze] [json]\n");
        return;
      }
    }
    obs::ExplainReport report = engine->Explain(analyze);
    // Swap the report's v<N> fallbacks for the session's variable names and
    // re-render the query text with them.
    for (Var v : query->AllVars()) {
      if (static_cast<size_t>(v) >= report.var_names.size()) {
        report.var_names.resize(static_cast<size_t>(v) + 1);
      }
      report.var_names[static_cast<size_t>(v)] = vars.Name(v);
    }
    report.query = obs::RenderQuery(*query, report.var_names);
    if (json) {
      std::printf("%s\n", report.ToJson().c_str());
    } else {
      std::printf("%s", report.ToText().c_str());
    }
  }

  void Stats(const std::string& args) {
    bool json = false;
    bool reset = false;
    std::istringstream in(args);
    std::string tok;
    while (in >> tok) {
      if (tok == "text") {
        json = false;
      } else if (tok == "json") {
        json = true;
      } else if (tok == "reset") {
        reset = true;
      } else {
        std::printf("usage: stats [text|json] [reset]\n");
        return;
      }
    }
    auto& registry = obs::MetricsRegistry::Global();
    if (json) {
      std::printf("%s\n", registry.Snapshot().ToJson().c_str());
    } else {
      std::printf("%s", registry.Snapshot().ToText().c_str());
    }
    if (!obs::Enabled()) {
      std::printf("(observability is disabled: INCR_OBS=off or compiled "
                  "out)\n");
    }
    if (reset) {
      registry.Reset();
      std::printf("metrics reset\n");
    }
  }

  void Metrics(const std::string& arg) {
    if (arg == "off") {
      obs::StopExporter();
      opts.metrics_path.clear();
      std::printf("metrics exporter stopped\n");
      return;
    }
    std::istringstream in(arg);
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: metrics <path> [interval_ms] | metrics off\n");
      return;
    }
    long long interval = 1000;
    long long iv = 0;
    if (in >> iv) {
      if (iv < 0) {
        std::printf("usage: metrics <path> [interval_ms] | metrics off\n");
        return;
      }
      interval = iv;
    }
    if (!obs::Enabled()) {
      std::printf("note: observability is disabled; the file will hold "
                  "empty snapshots\n");
    }
    opts.metrics_path = path;
    opts.metrics_interval_ms = static_cast<uint32_t>(interval);
    obs::ConfigureExporter(opts.metrics_path, opts.metrics_interval_ms);
    std::printf("Prometheus metrics -> %s every %lld ms\n", path.c_str(),
                interval);
  }

  void Trace(const std::string& arg) {
    auto& tracer = obs::Tracer::Global();
    if (arg == "off") {
      if (!tracer.Active()) {
        std::printf("tracing is not on\n");
        return;
      }
      tracer.StopSession();
      std::printf("trace written\n");
    } else if (arg.rfind("on ", 0) == 0 && arg.size() > 3) {
      if (!obs::Enabled()) {
        std::printf("observability is disabled; no events would be "
                    "recorded\n");
        return;
      }
      tracer.StartSession(arg.substr(3));
      std::printf("tracing to '%s' (trace off to write)\n",
                  arg.substr(3).c_str());
    } else {
      std::printf("usage: trace on <file> | trace off\n");
    }
  }

  bool Handle(const std::string& line) {
    if (line.empty()) return true;
    if (line == "quit" || line == "exit") return false;
    if (line == "help") {
      std::printf("commands: query <def> | sql <stmt> | engine <kind> "
                  "| +Rel v1 v2 [xN] "
                  "| -Rel v1 v2 | batch <file> | threads <n> | morsel "
                  "<bytes> | storage heap|paged <dir> [pool] [page] | "
                  "durable <dir> | checkpoint | serve <readers> "
                  "[millis] | options | enum | agg | classify | explain "
                  "[analyze] [json] | stats [text|json] [reset] | metrics "
                  "<path> [ms] | metrics off | trace on <file> | trace off "
                  "| quit\n");
      std::printf("engine kinds: eager-fact eager-list lazy-fact lazy-list "
                  "view-tree\n");
    } else if (line.rfind("query ", 0) == 0) {
      Define(line.substr(6));
    } else if (line == "query") {
      std::printf("usage: query Q(A, B) = R(A, B), S(B)\n");
    } else if (line.rfind("sql ", 0) == 0) {
      DefineSql(line.substr(4));
    } else if (line == "sql") {
      std::printf("usage: sql CREATE TABLE R (a, b); SELECT a, COUNT(*) "
                  "FROM R GROUP BY a;\n");
    } else if (line.rfind("engine ", 0) == 0) {
      SwitchEngine(line.substr(7));
    } else if (line == "engine") {
      std::printf("usage: engine eager-fact|eager-list|lazy-fact|lazy-list|"
                  "view-tree\n");
    } else if (line.rfind("batch ", 0) == 0) {
      Batch(line.substr(6));
    } else if (line == "batch") {
      std::printf("usage: batch <file>\n");
    } else if (line.rfind("threads ", 0) == 0) {
      SetThreads(line.substr(8));
    } else if (line == "threads") {
      std::printf("usage: threads <n>  (0 = hardware default)\n");
    } else if (line.rfind("morsel ", 0) == 0) {
      SetMorsel(line.substr(7));
    } else if (line == "morsel") {
      std::printf("usage: morsel <bytes>  (0 = cache-sized default)\n");
    } else if (line.rfind("storage ", 0) == 0) {
      Storage(line.substr(8));
    } else if (line == "storage") {
      std::printf("usage: storage heap | storage paged <spill_dir> "
                  "[pool_bytes] [page_bytes]\n");
    } else if (line.rfind("durable ", 0) == 0) {
      Durable(line.substr(8));
    } else if (line == "durable") {
      std::printf("usage: durable <dir>\n");
    } else if (line == "checkpoint") {
      Checkpoint();
    } else if (line.rfind("serve ", 0) == 0) {
      Serve(line.substr(6));
    } else if (line == "serve") {
      std::printf("usage: serve <readers> [millis]\n");
    } else if (line == "options") {
      Options();
    } else if (line[0] == '+') {
      Update(line.substr(1), +1);
    } else if (line[0] == '-') {
      Update(line.substr(1), -1);
    } else if (line == "enum") {
      Enumerate();
    } else if (line == "agg") {
      if (engine) {
        std::printf("%lld\n", static_cast<long long>(Aggregate()));
      }
    } else if (line == "classify") {
      Classify();
    } else if (line == "explain" || line.rfind("explain ", 0) == 0) {
      Explain(line == "explain" ? "" : line.substr(8));
    } else if (line == "stats" || line.rfind("stats ", 0) == 0) {
      Stats(line == "stats" ? "" : line.substr(6));
    } else if (line == "metrics" || line.rfind("metrics ", 0) == 0) {
      Metrics(line == "metrics" ? "" : line.substr(8));
    } else if (line.rfind("trace ", 0) == 0) {
      Trace(line.substr(6));
    } else if (line == "trace") {
      std::printf("usage: trace on <file> | trace off\n");
    } else {
      std::printf("unrecognized; try 'help'\n");
    }
    return true;
  }
};

const char* kDemoScript[] = {
    "query Q(who, dept) = Emp(who, dept), Dept(dept)",
    "classify",
    "+Emp alice eng",
    "+Emp bob eng",
    "+Emp carol sales",
    "+Dept eng",
    "enum",
    "+Dept sales",
    "enum",
    "-Emp bob eng",
    "enum",
    "explain analyze",
    "agg",
    "quit",
};

}  // namespace

int main() {
  Session session;
  std::printf("incr shell — 'help' for commands\n");
  std::string line;
  size_t demo_idx = 0;
  for (;;) {
    std::printf("ivm> ");
    if (!std::getline(std::cin, line)) {
      // No interactive input: run the scripted demo session.
      if (demo_idx >= sizeof(kDemoScript) / sizeof(kDemoScript[0])) break;
      line = kDemoScript[demo_idx++];
      std::printf("%s\n", line.c_str());
    }
    if (!session.Handle(line)) break;
  }
  return 0;
}
