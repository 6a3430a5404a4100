// IvmServer: a long-lived TCP front door over the SQL compiler and the
// view-tree engines — the "continuous query service" shape the paper's
// systems (DBToaster's server mode, F-IVM inside DBMS extensions) deploy
// as. Clients connect, REGISTER SQL statements (compiled by sql/sql.h into
// ring-typed view trees), stream UPDATE / BATCH deltas routed by relation
// name to every registered query, and ENUMERATE results off the snapshot
// path — lock-free against the maintainers, per the PR-6 epoch contract.
//
// Wire protocol (serve/protocol.h frames; payloads are UTF-8 text):
//
//   REGISTER <sql>            -> OK q<N>          (DDL may be inline; the
//                                                  catalog persists across
//                                                  registrations)
//   UPDATE [+|-]<rel> v.. [xN]-> OK routed=<q>    (one delta, fanned out)
//   BATCH\n<delta lines>      -> OK deltas=<k> routed=<q>  (all-or-nothing
//                                                  parse, one engine batch
//                                                  per affected query)
//   ENUMERATE q<N> [limit]    -> OK rows=<n>\n<sorted "v.. -> payload" rows>
//                                 (O(n) to enumerate and render every row
//                                  into one arena, then O(n log k) to pick
//                                  the k = min(limit, n) smallest; the
//                                  snapshot pin ends before the selection)
//   STATS q<N>                -> OK {json}        (update/enumerate counts,
//                                                  p50/p99 latencies)
//   EXPLAIN q<N> [analyze]    -> OK {json}        (obs/explain.h report)
//   PING                      -> OK pong
//   QUIT                      -> OK bye           (server closes the
//                                                  connection after flush)
//
// Errors reply "ERR <reason>" and keep the connection open, except framing
// violations (oversized length prefix) which poison the decoder: one ERR
// reply, then close. A torn frame (connection dying mid-frame) just drops
// the connection; the accept loop is unaffected.
//
// Threading: ONE IO thread owns every socket — it accepts, reads bytes
// into per-connection frame decoders, and flushes reply buffers (poll(2)
// with a self-pipe for wakeups). N worker threads execute commands:
// a connection with pending commands is enqueued once (its `busy` flag),
// a worker pops ONE command, executes it against the shared registry, and
// appends the reply to the connection's output buffer — so commands from
// one client run in order while different clients proceed in parallel.
// Workers never touch file descriptors, which lets the IO thread close a
// dead connection immediately without racing a worker.
//
// Registry locking: REGISTER takes the registry lock exclusively;
// UPDATE/BATCH/ENUMERATE/STATS/EXPLAIN take it shared. Each registered
// query additionally has a maintenance mutex serializing its writers —
// the snapshot contract wants ONE maintainer per tree, and serialized
// maintainers are exactly that. ENUMERATE never takes the maintenance
// mutex: it pins an epoch snapshot and reads lock-free.
#ifndef INCR_SERVE_SERVER_H_
#define INCR_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "incr/data/value.h"
#include "incr/engines/engine_options.h"
#include "incr/serve/protocol.h"
#include "incr/sql/sql.h"
#include "incr/util/status.h"

namespace incr {
namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the chosen one back via port().
  uint16_t port = 0;
  /// Command-executing worker threads (>= 1).
  size_t workers = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-query engine configuration. snapshot_reads is forced on — the
  /// ENUMERATE path requires epoch snapshots.
  EngineOptions engine;
};

/// One registered continuous query: the compiled SQL, its variable names,
/// and a ring-typed view-tree engine behind a type-erasing interface (the
/// ring is picked by the aggregate, so the server cannot name it
/// statically). Implemented by TypedQuery<R> in server.cc.
class RegisteredQuery;

class IvmServer {
 public:
  explicit IvmServer(ServerOptions opts = {});
  ~IvmServer();

  IvmServer(const IvmServer&) = delete;
  IvmServer& operator=(const IvmServer&) = delete;

  /// Binds, listens, and spawns the IO + worker threads. Fails (socket
  /// errors, port in use) without leaving threads behind.
  Status Start();

  /// Graceful shutdown: stops accepting, closes every connection, joins
  /// all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (after Start); useful with ephemeral binds.
  uint16_t port() const { return bound_port_; }

  /// Registered queries so far (monotonic ids q0, q1, ...).
  size_t num_queries() const;

 private:
  struct Connection;

  void IoLoop();
  void WorkerLoop();
  void Wake();

  /// Executes one command payload, returns the reply payload ("OK ..." /
  /// "ERR ..."). Sets *close_after when the reply should be the last frame.
  std::string Execute(const std::string& cmd, bool* close_after);

  std::string CmdRegister(const std::string& args);
  std::string CmdUpdate(const std::string& args);
  std::string CmdBatch(const std::string& body);
  std::string CmdEnumerate(const std::string& args);
  std::string CmdStats(const std::string& args);
  std::string CmdExplain(const std::string& args);

  /// Resolves "q<N>" under a caller-held shared registry lock.
  RegisteredQuery* FindQuery(const std::string& token);

  StatusOr<Value> ParseValue(const std::string& tok);

  ServerOptions opts_;
  uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Connections: owned by the IO thread's map; workers hold shared_ptrs
  // and only ever touch decoder-popped commands and the output buffer,
  // both under conn_mu_.
  std::mutex conn_mu_;
  std::condition_variable work_cv_;
  std::map<int, std::shared_ptr<Connection>> conns_;
  std::deque<std::shared_ptr<Connection>> ready_;

  // Query registry + shared SQL catalog (tables declared once per server).
  mutable std::shared_mutex reg_mu_;
  std::map<int, std::unique_ptr<RegisteredQuery>> queries_;
  sql::SqlCatalog catalog_;
  int next_query_id_ = 0;

  // String interning for non-numeric delta values (the shared token codec
  // in data/value.h: codes offset by kStringCodeBase, integer literals at
  // or above it rejected).
  std::mutex dict_mu_;
  Dictionary dict_;
};

}  // namespace serve
}  // namespace incr

#endif  // INCR_SERVE_SERVER_H_
