// IvmServer: a long-lived TCP front door over serve::Session — the
// "continuous query service" shape the paper's systems (DBToaster's server
// mode, F-IVM inside DBMS extensions) deploy as. Clients connect, REGISTER
// SQL statements, stream UPDATE / BATCH deltas routed by relation name to
// every registered query, and ENUMERATE results off the snapshot path —
// lock-free against the maintainers (the epoch snapshots of
// core/view_tree.h). The command language and its locking live in
// serve/session.h; this file is transport only.
//
// Transport: each command is one serve/protocol.h frame, each reply one
// frame. QUIT's reply is the connection's last frame. Errors reply
// "ERR <reason>" and keep the connection open, except framing violations
// (oversized length prefix) which poison the decoder: commands not yet
// started are dropped, a command already executing still gets its reply,
// then one ERR reply, then close. A torn frame (connection dying
// mid-frame) just drops the connection; the accept loop is unaffected.
//
// Threading: ONE IO thread owns every socket's reads — it accepts, reads
// bytes into per-connection frame decoders, and flushes the replies that
// did not go out at once (poll(2) with a self-pipe for wakeups). N worker
// threads execute commands: a connection with pending commands is enqueued
// once (its `busy` flag), a worker pops ONE command, executes it on the
// server's one Session, and appends the reply to the connection's output
// buffer — so commands from one client run in order while different
// clients proceed in parallel. When nothing was queued ahead of its reply
// and no other connection waits for a worker, the worker sends the reply
// itself (non-blocking, under conn_mu_); otherwise, and for a remainder —
// full socket buffer, short send, error — the IO thread sends it. Replies
// left to the IO thread are counted in `server.replies_deferred`. Every fd
// is closed only under conn_mu_ and marked `dead` first, so a worker never
// writes a closed or reused fd.
#ifndef INCR_SERVE_SERVER_H_
#define INCR_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "incr/engines/engine_options.h"
#include "incr/obs/metrics.h"
#include "incr/serve/protocol.h"
#include "incr/serve/session.h"
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
  bool FlushLocked(Connection& c);
  /// Appends `reply` (if any) and a held poison ERR to `c.outbuf`, sending
  /// at once when nothing was queued ahead and `ready_` is empty. True
  /// when the IO thread must wake: bytes remain, or the connection is
  /// closing. Holds conn_mu_.
  bool QueueReplyLocked(Connection& c, const std::string* reply);

  ServerOptions opts_;
  uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  // server.replies_deferred: replies (or their remainders) a worker left
  // to the IO thread's POLLOUT flush.
  obs::Counter* replies_deferred_;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Connections: owned by the IO thread's map; workers hold shared_ptrs
  // and only ever touch decoder-popped commands, the output buffer and
  // the socket's send side, all under conn_mu_.
  std::mutex conn_mu_;
  std::condition_variable work_cv_;
  std::map<int, std::shared_ptr<Connection>> conns_;
  std::deque<std::shared_ptr<Connection>> ready_;

  // Executes every command; thread-safe on its own (serve/session.h).
  Session session_;
};

}  // namespace serve
}  // namespace incr

#endif  // INCR_SERVE_SERVER_H_
