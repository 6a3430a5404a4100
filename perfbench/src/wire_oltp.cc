// wire-oltp: an in-process IvmServer over loopback TCP with two SQL views
// over the same tables, so every BATCH routes to two queries:
//
//   q0: SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b
//   q1: SELECT R.a, R.b, AVG(S.d) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b
//
// Both are q-hierarchical, so an update costs O(1) in the view tree and
// the round trip is dominated by the serving path around it.
//
// Two closed-loop serve::Client connections, served by two workers, each
// send 8-delta BATCHes; every 16th request is `ENUMERATE q0 100`. Two, not
// nproc - 1: with three clients, three workers and the IO thread on four
// CPUs the round trips measured the scheduler of a shared host, and their
// tails spread wider between runs than a regression bound; two clients
// still contend for the maintain mutex and queue behind each other's
// reads.
// Deletes only retract the sending client's own earlier inserts, and each
// client keeps at most kLiveCap rows of its own, so the state stays near
// the preloaded size. The a x b domain gives a few thousand output groups,
// so ENUMERATE's collect-and-sort is a visible part of read latency.
//
// The output check replays the preload and every client's batches into an
// in-process shadow view tree per query (Z-ring deltas commute, so batch
// order does not matter) and compares its rendered, sorted rows with the
// server's final unlimited ENUMERATE of both queries.
#include <algorithm>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/core/view_tree_plan.h"
#include "incr/engines/engine.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/product_ring.h"
#include "incr/serve/client.h"
#include "incr/serve/protocol.h"
#include "incr/serve/server.h"
#include "incr/sql/sql.h"
#include "incr/util/rng.h"

namespace perfbench {
namespace {

using incr::Delta;
using incr::IntRing;
using incr::Tuple;
using incr::Value;
using AvgRing = incr::ProductRing<IntRing, IntRing>;

constexpr const char* kSqlCount =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";
constexpr const char* kSqlAvg =
    "SELECT R.a, R.b, AVG(S.d) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kBatchDeltas = 8;
constexpr size_t kReadEvery = 16;      // every 16th request is a read
constexpr size_t kReadLimit = 100;
constexpr size_t kWarmupRequests = 64;  // per client, untimed
constexpr size_t kLiveCap = 256;        // own live rows per client
constexpr int64_t kDomA = 64, kDomB = 64, kDomC = 16, kDomD = 100;
constexpr size_t kPreloadRows = 4000;   // per table
constexpr size_t kPreloadBatch = 500;
constexpr int kSetups = 7;
constexpr size_t kRateSlices = 10;  // wall-clock slices of the timed phase
// Tail percentiles (see TailLatency).
constexpr int kUpdateTailPercentile = 90;
constexpr int kReadTailPercentile = 90;
// The timed phase ends when the clients have sent their streams or after
// this share of --seconds, whichever comes first; the rest of the run is
// set-up and the output check. Each client's stream holds
// kRequestsPerSecond requests per second of the timed phase, about what a
// 4-core x86 host serves, so a slowed host stops at the deadline instead
// of stretching the run.
constexpr double kTimedShare = 0.8;
constexpr double kRequestsPerSecond = 2400;

// One generated delta: relation (0 = R(a, b), 1 = S(b, c, d)), sign, values.
struct WireDelta {
  int32_t rel;
  int32_t sign;
  Value v[3];
};

struct Request {
  std::string wire;               // the frame payload sent
  std::vector<WireDelta> deltas;  // empty for a read
};

WireDelta DrawInsert(incr::Rng& rng, int rel) {
  if (rel == 0) {
    return {0, 1, {rng.UniformInt(0, kDomA - 1), rng.UniformInt(0, kDomB - 1), 0}};
  }
  return {1, 1,
          {rng.UniformInt(0, kDomB - 1), rng.UniformInt(0, kDomC - 1),
           rng.UniformInt(0, kDomD - 1)}};
}

std::string DeltaLine(const WireDelta& d) {
  std::string line = d.sign < 0 ? "-" : "";
  line += d.rel == 0 ? "R " : "S ";
  line += std::to_string(d.v[0]) + " " + std::to_string(d.v[1]);
  if (d.rel == 1) line += " " + std::to_string(d.v[2]);
  return line;
}

std::string BatchText(const std::vector<WireDelta>& ds, size_t skip) {
  std::string body = "BATCH";
  for (size_t i = 0; i < ds.size(); ++i) {
    if (i == skip) continue;
    body += "\n" + DeltaLine(ds[i]);
  }
  return body;
}

std::vector<Request> GenerateClient(uint64_t seed, size_t client,
                                    size_t requests, bool drop_delta) {
  incr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x1000 * (client + 1));
  std::vector<Request> out;
  out.reserve(requests);
  std::vector<WireDelta> live;  // this client's rows from earlier batches
  for (size_t r = 0; r < requests; ++r) {
    Request req;
    if (r % kReadEvery == kReadEvery - 1) {
      req.wire = "ENUMERATE q0 " + std::to_string(kReadLimit);
      out.push_back(std::move(req));
      continue;
    }
    const size_t live_before = live.size();
    for (size_t i = 0; i < kBatchDeltas; ++i) {
      const double p_delete = live.size() >= kLiveCap ? 0.5 : 0.25;
      if (live_before > 0 && rng.Chance(p_delete)) {
        const size_t k = rng.Uniform(std::min(live_before, live.size()));
        WireDelta d = live[k];
        live[k] = live.back();
        live.pop_back();
        d.sign = -1;
        req.deltas.push_back(d);
      } else {
        const WireDelta d = DrawInsert(rng, rng.Chance(0.5) ? 0 : 1);
        live.push_back(d);
        req.deltas.push_back(d);
      }
    }
    // Fault injection: one line of client 0's first timed batch never
    // reaches the server, but stays in the shadow's input.
    const bool drop = drop_delta && client == 0 && r == kWarmupRequests;
    req.wire = BatchText(req.deltas, drop ? 0 : SIZE_MAX);
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<std::string> PreloadBatches(uint64_t seed,
                                        std::vector<WireDelta>* rows) {
  incr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x77);
  for (int rel = 0; rel < 2; ++rel) {
    for (size_t i = 0; i < kPreloadRows; ++i) rows->push_back(DrawInsert(rng, rel));
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < rows->size(); i += kPreloadBatch) {
    const size_t end = std::min(rows->size(), i + kPreloadBatch);
    out.push_back(BatchText(
        std::vector<WireDelta>(rows->begin() + static_cast<long>(i),
                               rows->begin() + static_cast<long>(end)),
        SIZE_MAX));
  }
  return out;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// "OK deltas=<n> ..." -> n, or -1.
int64_t AckedDeltas(const std::string& reply) {
  if (!StartsWith(reply, "OK deltas=")) return -1;
  return std::strtoll(reply.c_str() + 10, nullptr, 10);
}

// One running server with both queries registered and the preload applied.
struct Setup {
  std::unique_ptr<incr::serve::IvmServer> server;
  bool ok = false;
  std::string error;
};

Setup StartServer(const std::vector<std::string>& preload, SpanLog* log) {
  ScopedSpan root(log, "wire.setup", "serve");
  Setup s;
  incr::serve::ServerOptions so;
  so.workers = kWorkers;
  s.server = std::make_unique<incr::serve::IvmServer>(so);
  {
    ScopedSpan span(log, "IvmServer::Start", "serve", 0, root.index());
    if (incr::Status st = s.server->Start(); !st.ok()) {
      s.error = "start: " + st.message();
      return s;
    }
  }
  auto cl = incr::serve::Client::Connect("127.0.0.1", s.server->port());
  if (!cl.ok()) {
    s.error = "connect: " + cl.status().message();
    return s;
  }
  int qid = 0;
  for (const char* sql : {kSqlCount, kSqlAvg}) {
    ScopedSpan span(log, "REGISTER", "serve", 0, root.index());
    auto reply = cl->Call(std::string("REGISTER ") + sql);
    if (!reply.ok() || *reply != "OK q" + std::to_string(qid++)) {
      s.error = "register: " + (reply.ok() ? *reply : reply.status().message());
      return s;
    }
  }
  for (const std::string& b : preload) {
    ScopedSpan span(log, "BATCH(preload)", "serve", 0, root.index());
    auto reply = cl->Call(b);
    if (!reply.ok() || AckedDeltas(*reply) < 0) {
      s.error = "preload: " + (reply.ok() ? *reply : reply.status().message());
      return s;
    }
  }
  s.ok = true;
  return s;
}

// ---- shadow ---------------------------------------------------------------

std::string RenderPayload(int64_t v) { return std::to_string(v); }
std::string RenderPayload(const std::pair<int64_t, int64_t>& v) {
  return "count=" + std::to_string(v.first) + " sum=" + std::to_string(v.second);
}

// One query's in-process reference: the compiled statement and a view-tree
// engine configured like the server's (snapshot reads on).
template <typename R>
struct Shadow {
  incr::sql::CompiledSql compiled;
  std::unique_ptr<incr::ViewTreeEngine<R>> engine;

  typename R::Value Lift(const std::string& rel, const Tuple& t, int64_t m) {
    if constexpr (std::is_same_v<R, IntRing>) {
      return incr::sql::LiftInt(compiled, rel, t, m);
    } else {
      return incr::sql::LiftPair(compiled, rel, t, m);
    }
  }

  void Apply(const std::vector<WireDelta>& ds) {
    std::vector<Delta<R>> batch;
    batch.reserve(ds.size());
    for (const WireDelta& d : ds) {
      const std::string rel = d.rel == 0 ? "R" : "S";
      Tuple t = d.rel == 0 ? Tuple{d.v[0], d.v[1]} : Tuple{d.v[0], d.v[1], d.v[2]};
      typename R::Value p = Lift(rel, t, d.sign);
      batch.push_back(Delta<R>{rel, std::move(t), p});
    }
    engine->ApplyBatch(batch);
  }

  std::vector<std::string> Rows() {
    std::vector<std::string> rows;
    engine->EnumerateSnapshot([&](const Tuple& t, const typename R::Value& p) {
      std::string row;
      for (Value v : t) row += std::to_string(v) + " ";
      rows.push_back(row + "-> " + RenderPayload(p));
    });
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

template <typename R>
Shadow<R> MakeShadow(const char* sql, incr::sql::SqlCatalog* catalog,
                     std::vector<double>* compile_ns) {
  incr::VarRegistry vars;
  const uint64_t t0 = NowNs();
  auto compiled = incr::sql::CompileSql(sql, &vars, catalog);
  compile_ns->push_back(static_cast<double>(NowNs() - t0));
  INCR_CHECK(compiled.ok());
  auto vo = incr::EnumerableOrderFor(compiled->query);
  INCR_CHECK(vo.ok());
  auto tree = incr::ViewTree<R>::Make(compiled->query, *std::move(vo));
  INCR_CHECK(tree.ok());
  incr::EngineOptions eo;
  eo.snapshot_reads = true;
  Shadow<R> s;
  s.compiled = *std::move(compiled);
  s.engine = std::make_unique<incr::ViewTreeEngine<R>>(*std::move(tree), eo);
  return s;
}

std::vector<std::string> ReplyRows(const std::string& reply) {
  std::vector<std::string> rows;
  size_t pos = reply.find('\n');
  while (pos != std::string::npos) {
    const size_t next = reply.find('\n', pos + 1);
    rows.push_back(reply.substr(pos + 1, next == std::string::npos
                                             ? std::string::npos
                                             : next - pos - 1));
    pos = next;
  }
  return rows;
}

struct ClientLog {
  std::vector<double> update_ns, read_ns;
  std::vector<uint64_t> update_end, read_end;  // completion times
  std::vector<uint32_t> update_acked;          // deltas acknowledged
  uint64_t acked = 0, errors = 0, read_rows = 0, read_bytes = 0;
  uint64_t request_bytes = 0, reply_bytes = 0, batches = 0;
  size_t sent = 0;  // requests that reached the server
};

}  // namespace

void RunWireOltp(const Options& opts, Result* out) {
  const size_t requests = std::max<size_t>(
      kWarmupRequests + kReadEvery,
      static_cast<size_t>(opts.seconds * kTimedShare * kRequestsPerSecond));
  const uint64_t timed_ns =
      static_cast<uint64_t>(opts.seconds * kTimedShare * 1e9);
  Digest digest;
  std::vector<WireDelta> preload_rows;
  const std::vector<std::string> preload = PreloadBatches(opts.seed, &preload_rows);
  for (const std::string& b : preload) digest.AddString(b);
  std::vector<std::vector<Request>> streams;
  for (size_t c = 0; c < kClients; ++c) {
    streams.push_back(GenerateClient(opts.seed, c, requests, false));
    for (const Request& r : streams.back()) digest.AddString(r.wire);
    if (opts.drop_delta && c == 0) {
      // The digest names the intended input; the server gets the damaged one.
      streams.back() = GenerateClient(opts.seed, c, requests, true);
    }
  }
  out->input_digest = digest.Hex();

  std::vector<std::unique_ptr<SpanLog>> logs;
  for (size_t c = 0; c <= kClients; ++c) {
    logs.push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(c)));
  }
  SpanLog* main_log = opts.trace ? logs[kClients].get() : nullptr;

  // Set-up, repeated: each sample starts a server, registers both queries
  // and applies the preload; the last one serves the timed phase.
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    if (setup.server) setup.server->Stop();
    const uint64_t t0 = NowNs();
    setup = StartServer(preload, main_log);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!setup.ok) break;
  }
  out->attempted += 1;
  if (!setup.ok) {
    out->failed += 1;
    out->Check("setup", false, setup.error);
    return;
  }
  const uint16_t port = setup.server->port();

  std::vector<incr::serve::Client> conns;
  for (size_t c = 0; c < kClients; ++c) {
    auto cl = incr::serve::Client::Connect("127.0.0.1", port);
    INCR_CHECK(cl.ok());
    conns.push_back(*std::move(cl));
  }

  RegistryTally tally;
  uint64_t t_start = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    tally.Begin();
    t_start = NowNs();
  });
  std::vector<ClientLog> clogs(kClients);
  std::vector<uint64_t> t_end(kClients, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SpanLog* log = opts.trace ? logs[c].get() : nullptr;
      ClientLog& cl = clogs[c];
      incr::serve::Client& conn = conns[c];
      const std::vector<Request>& reqs = streams[c];
      for (size_t r = 0; r < reqs.size(); ++r) {
        if (r == kWarmupRequests) sync.arrive_and_wait();
        const bool timed = r >= kWarmupRequests;
        if (timed && NowNs() - t_start >= timed_ns) break;
        const bool is_read = reqs[r].deltas.empty();
        const uint64_t req_id = (static_cast<uint64_t>(c + 1) << 32) | r;
        ScopedSpan root(timed ? log : nullptr,
                        is_read ? "wire.ENUMERATE" : "wire.BATCH", "wire",
                        req_id);
        const uint64_t t0 = NowNs();
        incr::Status st;
        {
          ScopedSpan span(timed ? log : nullptr, "serve::Client::Send",
                          "client", req_id, root.index());
          st = conn.Send(reqs[r].wire);
        }
        incr::StatusOr<std::string> reply =
            incr::Status::Internal("request not sent");
        if (st.ok()) {
          ScopedSpan span(timed ? log : nullptr, "serve::Client::Recv",
                          "client", req_id, root.index());
          reply = conn.Recv();
        }
        const double ns = static_cast<double>(NowNs() - t0);
        cl.sent = r + 1;
        if (!reply.ok()) {
          ++cl.errors;  // transport error: the connection is gone
          break;
        }
        if (!timed) continue;
        cl.request_bytes += reqs[r].wire.size();
        cl.reply_bytes += reply->size();
        if (is_read) {
          cl.read_ns.push_back(ns);
          cl.read_end.push_back(t0 + static_cast<uint64_t>(ns));
          if (!StartsWith(*reply, "OK rows=")) {
            ++cl.errors;
          } else {
            cl.read_rows += std::strtoull(reply->c_str() + 8, nullptr, 10);
            cl.read_bytes += reply->size();
          }
        } else {
          cl.update_ns.push_back(ns);
          cl.update_end.push_back(t0 + static_cast<uint64_t>(ns));
          ++cl.batches;
          const int64_t acked = AckedDeltas(*reply);
          if (acked < 0) {
            ++cl.errors;
          } else {
            cl.acked += static_cast<uint64_t>(acked);
          }
          cl.update_acked.push_back(static_cast<uint32_t>(std::max<int64_t>(0, acked)));
        }
      }
      if (cl.sent <= kWarmupRequests) sync.arrive_and_drop();
      t_end[c] = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t t_stop = *std::max_element(t_end.begin(), t_end.end());
  tally.End();

  // Final unlimited ENUMERATE of both queries.
  std::string final_reply[2];
  {
    auto cl = incr::serve::Client::Connect("127.0.0.1", port);
    INCR_CHECK(cl.ok());
    for (int q = 0; q < 2; ++q) {
      auto reply = cl->Call("ENUMERATE q" + std::to_string(q));
      final_reply[q] = reply.ok() ? *reply : "ERR " + reply.status().message();
    }
  }
  setup.server->Stop();

  // Samples of all clients in completion order, so the tail's windows and
  // the throughput's time slices follow the wall clock.
  std::vector<std::pair<uint64_t, double>> upd, rd;
  std::vector<std::pair<uint64_t, uint32_t>> acks;
  uint64_t acked = 0, errors = 0, read_rows = 0, read_bytes = 0,
           batches = 0, req_bytes = 0, reply_bytes = 0, sent = 0;
  for (const ClientLog& cl : clogs) {
    for (size_t i = 0; i < cl.update_ns.size(); ++i) {
      upd.emplace_back(cl.update_end[i], cl.update_ns[i]);
      acks.emplace_back(cl.update_end[i], cl.update_acked[i]);
    }
    for (size_t i = 0; i < cl.read_ns.size(); ++i) {
      rd.emplace_back(cl.read_end[i], cl.read_ns[i]);
    }
    acked += cl.acked;
    errors += cl.errors;
    read_rows += cl.read_rows;
    read_bytes += cl.read_bytes;
    batches += cl.batches;
    req_bytes += cl.request_bytes;
    reply_bytes += cl.reply_bytes;
    sent += cl.sent;
  }
  std::sort(upd.begin(), upd.end());
  std::sort(rd.begin(), rd.end());
  std::vector<double> update_ns, read_ns;
  for (const auto& [t, ns] : upd) update_ns.push_back(ns);
  for (const auto& [t, ns] : rd) read_ns.push_back(ns);
  const uint64_t timed_requests = update_ns.size() + read_ns.size();

  // Throughput: median over equal wall-clock slices of the timed phase of
  // the deltas acknowledged in the slice, so one stall moves it little.
  std::vector<double> slice_deltas(kRateSlices, 0);
  const double slice_ns =
      static_cast<double>(t_stop - t_start) / static_cast<double>(kRateSlices);
  for (const auto& [t, n] : acks) {
    const size_t k = std::min<size_t>(
        kRateSlices - 1, static_cast<size_t>(static_cast<double>(t - t_start) / slice_ns));
    slice_deltas[k] += n;
  }
  for (double& d : slice_deltas) d /= slice_ns * 1e-9;
  out->attempted += sent + 2;
  out->failed += errors;

  // Shadow: compile both statements, replay preload + every sent batch.
  std::vector<double> compile_ns;
  incr::sql::SqlCatalog catalog;
  Shadow<IntRing> s0 = MakeShadow<IntRing>(kSqlCount, &catalog, &compile_ns);
  Shadow<AvgRing> s1 = MakeShadow<AvgRing>(kSqlAvg, &catalog, &compile_ns);
  for (size_t i = 0; i < preload_rows.size(); i += kPreloadBatch) {
    const std::vector<WireDelta> part(
        preload_rows.begin() + static_cast<long>(i),
        preload_rows.begin() +
            static_cast<long>(std::min(preload_rows.size(), i + kPreloadBatch)));
    s0.Apply(part);
    s1.Apply(part);
  }
  RegistryTally shadow_tally;
  std::vector<double> shadow_ns;
  SpanLog* shadow_log = main_log;
  shadow_tally.Begin();
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<Request> intended =
        opts.drop_delta && c == 0 ? GenerateClient(opts.seed, c, requests, false)
                                  : std::vector<Request>{};
    const std::vector<Request>& reqs = intended.empty() ? streams[c] : intended;
    for (size_t r = 0; r < clogs[c].sent; ++r) {
      if (reqs[r].deltas.empty()) continue;
      ScopedSpan span(r >= kWarmupRequests ? shadow_log : nullptr,
                      "IvmEngine::ApplyBatch(shadow)", "engines",
                      (static_cast<uint64_t>(c + 1) << 32) | r);
      const uint64_t t0 = NowNs();
      s0.Apply(reqs[r].deltas);
      s1.Apply(reqs[r].deltas);
      if (r >= kWarmupRequests) {
        shadow_ns.push_back(static_cast<double>(NowNs() - t0));
      }
    }
  }
  shadow_tally.End();
  const std::vector<std::string> want[2] = {s0.Rows(), s1.Rows()};
  for (int q = 0; q < 2; ++q) {
    const std::vector<std::string> got = ReplyRows(final_reply[q]);
    const bool ok = StartsWith(final_reply[q], "OK rows=") && got == want[q];
    out->Check("final_enumerate_q" + std::to_string(q) + "_eq_shadow", ok,
               std::to_string(got.size()) + " rows vs shadow " +
                   std::to_string(want[q].size()));
  }

  // Frame codec cost per byte: AppendFrame + FrameDecoder over the timed
  // requests of client 0, three passes, median.
  std::vector<double> codec;
  size_t codec_bytes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    std::string buf;
    incr::serve::FrameDecoder dec;
    size_t bytes = 0, popped = 0;
    const uint64_t t0 = NowNs();
    for (const Request& r : streams[0]) {
      buf.clear();
      incr::serve::AppendFrame(r.wire, &buf);
      dec.Feed(buf.data(), buf.size());
      popped += dec.Pop().has_value() ? 1 : 0;
      bytes += r.wire.size();
    }
    codec.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(bytes));
    codec_bytes = popped == streams[0].size() ? bytes : 0;
  }

  const double wall_s = static_cast<double>(t_stop - t_start) * 1e-9;
  const Tail tail = TailLatency(update_ns, kUpdateTailPercentile);
  const Tail read_tail = TailLatency(read_ns, kReadTailPercentile);
  out->E2e("deltas_per_s", Median(slice_deltas), "deltas/s", kRateSlices,
           "acknowledged deltas per second, median over " +
               std::to_string(kRateSlices) + " slices of the timed phase");
  out->E2e("update_p50_us", Median(update_ns) / 1e3, "us", update_ns.size(),
           "BATCH round trip (8 deltas)");
  out->E2e("update_tail_us", tail.value / 1e3, "us", update_ns.size(),
           tail.Note());
  out->E2e("read_p50_us", Median(read_ns) / 1e3, "us", read_ns.size(),
           "ENUMERATE q0 100 round trip");
  out->E2e("read_tail_us", read_tail.value / 1e3, "us", read_ns.size(),
           read_tail.Note());
  out->E2e("setup_s", Median(setup_s), "s", setup_s.size(),
           "server start + 2 REGISTERs + preload");
  out->E2e("peak_rss_mb", PeakRssMiB(), "MiB", 1);

  const double nbatches = static_cast<double>(std::max<uint64_t>(1, batches));
  const double nreads = static_cast<double>(std::max<size_t>(1, read_ns.size()));
  const double apply_us = (tally.HistMean("server.q0.update_ns") +
                           tally.HistMean("server.q1.update_ns")) / 1e3;
  const double shadow_us = Mean(shadow_ns) / 1e3;
  const double rtt_us = Mean(update_ns) / 1e3;
  const double codec_ns_per_byte = Median(codec);
  const double codec_us =
      codec_ns_per_byte *
      static_cast<double>(req_bytes + reply_bytes - read_bytes) / nbatches / 1e3;
  out->Layer("serve.apply_mean_us", apply_us, "us",
             static_cast<uint64_t>(tally.HistCount("server.q0.update_ns")));
  out->Layer("serve.lock_wait_mean_us", apply_us - shadow_us, "us");
  out->Layer("serve.outside_apply_mean_us", rtt_us - apply_us, "us");
  out->Layer("serve.unattributed_us", rtt_us - apply_us - codec_us, "us");
  out->Layer("serve.enum_mean_us", tally.HistMean("server.q0.enum_ns") / 1e3,
             "us", static_cast<uint64_t>(tally.HistCount("server.q0.enum_ns")));
  out->Layer("serve.rows_per_read", static_cast<double>(read_rows) / nreads,
             "count");
  out->Layer("serve.reply_bytes_per_read",
             static_cast<double>(read_bytes) / nreads, "bytes");
  out->Layer("serve.frame_codec_ns_per_byte", codec_ns_per_byte, "ns/byte",
             codec_bytes);
  out->Layer("sql.compile_us", Mean(compile_ns) / 1e3, "us", compile_ns.size());
  out->Layer("engines.apply_mean_us", shadow_us, "us", shadow_ns.size());
  ReportPoolLayers(tally, out);
  ReportSharedLayers(tally, nbatches, static_cast<double>(acked),
                     static_cast<double>(timed_requests), /*pager=*/true, out);
  out->Layer("data.state_mb",
             static_cast<double>(s0.engine->tree().StateBytes() +
                                 s1.engine->tree().StateBytes()) /
                 (1 << 20),
             "MiB");

  out->Info("clients", kClients);
  out->Info("server_workers", kWorkers);
  out->Info("requests_per_client", static_cast<double>(requests));
  out->Info("timed_requests", static_cast<double>(timed_requests));
  out->Info("batch_deltas", kBatchDeltas);
  out->Info("output_groups_q0", static_cast<double>(want[0].size()));
  out->Info("wall_s", wall_s);
  out->Info("acked_per_wall_s", static_cast<double>(acked) / wall_s);
  if (opts.trace) {
    std::vector<const SpanLog*> all;
    for (const auto& l : logs) all.push_back(l.get());
    for (const auto& [layer, ns] : LayerSelfNs(all)) {
      out->Layer("self_ms." + layer, ns / 1e6, "ms");
    }
    out->Layer("trace.spans",
               static_cast<double>(
                   WriteSpans(opts.workdir + "/spans-wire-oltp.json", all)),
               "count");
  }
}

}  // namespace perfbench
