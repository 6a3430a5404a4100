#include "incr/serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "incr/obs/metrics.h"

namespace incr {
namespace serve {

namespace {

int SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-socket state. The IO thread owns the decoder and closes the fd;
/// workers touch `pending`, `outbuf` and `poison_err`, and send on the fd,
/// only under the server's connection mutex.
struct IvmServer::Connection {
  Connection(int fd_in, size_t max_frame) : fd(fd_in), decoder(max_frame) {}

  int fd;
  FrameDecoder decoder;
  std::deque<std::string> pending;  ///< decoded, not-yet-executed commands
  std::string outbuf;               ///< framed replies awaiting the socket
  /// The poison ERR of a connection poisoned while busy: the worker that
  /// holds it queues this after its reply, so the ERR stays the last frame.
  std::string poison_err;
  bool busy = false;     ///< queued or executing in a worker
  /// Close once outbuf flushes and no worker holds the connection (QUIT /
  /// poison); commands still pending then never run.
  bool closing = false;
  bool dead = false;  ///< fd closed; workers must drop their reference
};

/// Sends as much of `c.outbuf` as the socket takes without blocking, and
/// erases what went out. False on a send error other than a full buffer
/// (the connection is broken). Caller holds conn_mu_ and has checked that
/// `c.dead` is false.
bool IvmServer::FlushLocked(Connection& c) {
  size_t sent = 0;
  bool ok = true;
  while (sent < c.outbuf.size()) {
    ssize_t n = ::send(c.fd, c.outbuf.data() + sent, c.outbuf.size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ok = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    break;
  }
  c.outbuf.erase(0, sent);
  return ok;
}

IvmServer::IvmServer(ServerOptions opts)
    : opts_(std::move(opts)),
      replies_deferred_(obs::MetricsRegistry::Global().GetCounter(
          "server.replies_deferred")),
      session_(opts_.engine) {
  if (opts_.workers == 0) opts_.workers = 1;
}

IvmServer::~IvmServer() { Stop(); }

size_t IvmServer::num_queries() const { return session_.num_queries(); }

Status IvmServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  // A client vanishing mid-write must surface as EPIPE, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  auto fail = [&](const std::string& what) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    started_.store(false);
    return Status::Internal(what + ": " + strerror(errno));
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_.store(false);
    return Status::InvalidArgument("bad host '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return fail("bind " + opts_.host + ":" + std::to_string(opts_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);
  if (SetNonBlocking(listen_fd_) != 0) return fail("fcntl");
  if (::pipe(wake_pipe_) != 0) return fail("pipe");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  stopping_.store(false);
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(opts_.workers);
  for (size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void IvmServer::Stop() {
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ready_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void IvmServer::Wake() {
  if (wake_pipe_[1] < 0) return;
  char b = 'w';
  ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
  (void)ignored;  // pipe full means a wakeup is already pending
}

void IvmServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!stopping_.load()) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      // Sweep connections whose graceful close already flushed: nothing
      // buffered, no worker holding them.
      for (auto it = conns_.begin(); it != conns_.end();) {
        Connection& c = *it->second;
        if (c.closing && c.outbuf.empty() && !c.busy) {
          c.dead = true;
          ::close(c.fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto& [fd, conn] : conns_) {
        short events = POLLIN;
        if (!conn->outbuf.empty()) events |= POLLOUT;
        pfds.push_back(pollfd{fd, events, 0});
        polled.push_back(conn);
      }
    }
    int rc = ::poll(pfds.data(), pfds.size(), 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    if (pfds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
    }
    if (pfds[0].revents & POLLIN) {
      for (;;) {
        int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        SetNonBlocking(cfd);
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::lock_guard<std::mutex> lock(conn_mu_);
        conns_.emplace(cfd, std::make_shared<Connection>(
                                cfd, opts_.max_frame_bytes));
      }
    }
    for (size_t i = 2; i < pfds.size(); ++i) {
      std::shared_ptr<Connection>& conn = polled[i - 2];
      const int fd = pfds[i].fd;
      const short rev = pfds[i].revents;
      if (rev == 0) continue;
      bool drop = (rev & (POLLERR | POLLNVAL)) != 0;
      if (!drop && (rev & (POLLIN | POLLHUP))) {
        std::string incoming;
        char buf[65536];
        for (;;) {
          ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n > 0) {
            incoming.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n == 0) {
            drop = true;  // EOF — torn or clean, either way the peer left
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          drop = true;
          break;
        }
        if (!incoming.empty()) {
          std::lock_guard<std::mutex> lock(conn_mu_);
          conn->decoder.Feed(incoming.data(), incoming.size());
          while (auto frame = conn->decoder.Pop()) {
            conn->pending.push_back(*std::move(frame));
          }
          if (!conn->decoder.Error().ok() && !conn->closing) {
            // Framing violation: one ERR reply, then close after flush.
            // Pending commands decoded before the poison are abandoned —
            // the stream can no longer be trusted. A worker holding the
            // connection queues the ERR after its reply, so it stays last.
            conn->pending.clear();
            std::string err = "ERR " + conn->decoder.Error().message();
            if (conn->busy) {
              conn->poison_err = std::move(err);
            } else {
              AppendFrame(err, &conn->outbuf);
            }
            conn->closing = true;
          }
          if (!conn->busy && !conn->closing && !conn->pending.empty()) {
            conn->busy = true;
            ready_.push_back(conn);
            work_cv_.notify_one();
          }
        }
      }
      if (!drop && (rev & POLLOUT)) {
        std::lock_guard<std::mutex> lock(conn_mu_);
        drop = !FlushLocked(*conn);
      }
      if (drop) {
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn->dead = true;
        conns_.erase(fd);
        ::close(fd);
      }
    }
  }
  // Shutdown: close everything; workers see `dead` and drop their refs.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& [fd, conn] : conns_) {
    conn->dead = true;
    ::close(fd);
  }
  conns_.clear();
}

bool IvmServer::QueueReplyLocked(Connection& c, const std::string* reply) {
  const bool was_empty = c.outbuf.empty();
  if (reply != nullptr) AppendFrame(*reply, &c.outbuf);
  if (!c.poison_err.empty()) {
    AppendFrame(c.poison_err, &c.outbuf);
    c.poison_err.clear();
  }
  // Nothing queued ahead and no connection waiting for a worker: send now
  // rather than hop through the IO thread. With a connection waiting, the
  // IO thread sends while this worker moves on to it: sending here cost a
  // one-worker server under two clients 4-7% on wire-oltp (4-core x86).
  // Whatever the socket does not take (full buffer, short send, error)
  // also stays in outbuf for the IO thread's POLLOUT flush.
  if (was_empty && ready_.empty()) (void)FlushLocked(c);
  if (!c.outbuf.empty()) replies_deferred_->Inc();
  return !c.outbuf.empty() || c.closing;
}

void IvmServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    std::string cmd;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      work_cv_.wait(lock,
                    [&] { return stopping_.load() || !ready_.empty(); });
      if (stopping_.load()) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
      if (conn->dead || conn->pending.empty()) {
        // Poisoned while queued: the held ERR is the connection's last
        // frame.
        const bool wake = !conn->dead && QueueReplyLocked(*conn, nullptr);
        conn->busy = false;
        lock.unlock();
        if (wake) Wake();
        continue;
      }
      cmd = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    bool close_after = false;
    std::string reply = session_.Execute(cmd, &close_after);
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (!conn->dead) {
        if (close_after) conn->closing = true;
        // The IO thread must flush a remainder, or close the connection.
        wake = QueueReplyLocked(*conn, &reply);
        if (!conn->closing && !conn->pending.empty()) {
          ready_.push_back(conn);
          work_cv_.notify_one();
        } else {
          conn->busy = false;
        }
      } else {
        conn->busy = false;
      }
    }
    if (wake) Wake();
  }
}

}  // namespace serve
}  // namespace incr
