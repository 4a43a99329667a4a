#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace davinci::server {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SketchServer::SketchServer(ServerOptions options)
    : options_(options),
      registry_(options.checkpoint_dir),
      dispatcher_(&registry_,
                  DispatcherOptions{.checkpoint_every =
                                        options.checkpoint_every}),
      pool_(options.workers) {}

SketchServer::~SketchServer() { Stop(); }

bool SketchServer::Start() {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // bench/test daemon: local only
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  // Warm restart: revive every tenant whose checkpoint header parses;
  // corrupt bodies fall back to empty tenants (tenant.cc logs them).
  if (registry_.persistent()) registry_.RecoverAll();

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // Long-lived I/O loop, not per-request work — the per-request fan-out
  // goes through WorkerPool as the lint rule intends.
  loop_thread_ = std::thread([this] { Loop(); });  // davinci-lint: allow(raw-thread)
  return true;
}

void SketchServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::unique_ptr<Connection>& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  // Graceful shutdown is a checkpoint boundary too: the next Start() of
  // this dir warm-restarts from here.
  if (registry_.persistent()) registry_.CheckpointAll();
}

void SketchServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next iteration
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    connections_.push_back(std::move(conn));
  }
}

void SketchServer::DrainReadable(Connection& conn) {
  char buffer[64 * 1024];
  while (true) {
    ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (!conn.assembler.Feed(reinterpret_cast<const uint8_t*>(buffer),
                               static_cast<size_t>(n))) {
        // Unrecoverable framing (zero or oversized length prefix): the
        // stream cannot be resynchronized. One kTooLarge reply, then
        // close once it flushes. Other tenants/connections are unharmed.
        conn.outbox += Frame(StatusBody(StatusCode::kTooLarge));
        conn.close_after_flush = true;
        return;
      }
      continue;
    }
    if (n == 0) {
      conn.eof = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.eof = true;
    return;
  }
}

void SketchServer::DispatchRound() {
  std::vector<Connection*> busy;
  for (std::unique_ptr<Connection>& conn : connections_) {
    if (conn->assembler.fatal()) continue;
    std::vector<uint8_t> body;
    while (conn->assembler.Next(&body)) {
      conn->inbox.push_back(std::move(body));
    }
    if (!conn->inbox.empty()) busy.push_back(conn.get());
  }
  if (busy.empty()) return;
  // One fork/join round: worker i owns connection busy[i] outright and
  // answers its frames in arrival order — per-connection response order
  // is preserved without any locking.
  pool_.Run(busy.size(), [this, &busy](size_t i) {
    Connection& conn = *busy[i];
    for (const std::vector<uint8_t>& request : conn.inbox) {
      conn.outbox += Frame(dispatcher_.Handle(request));
    }
    conn.inbox.clear();
  });
}

void SketchServer::FlushWritable(Connection& conn) {
  while (conn.HasUnsent()) {
    ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
                       conn.outbox.size() - conn.outbox_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Reclaim the sent prefix once it is at least half the buffer, so a
      // reader that never fully drains holds no more than twice its
      // unsent bytes. Each compaction moves no more bytes than were sent
      // since the last one, so flushing stays linear.
      if (conn.outbox_sent * 2 >= conn.outbox.size()) {
        conn.outbox.erase(0, conn.outbox_sent);
        conn.outbox_sent = 0;
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer gone: discard what it will never read, so the connection is
    // dropped below instead of being polled forever.
    conn.eof = true;
    break;
  }
  conn.outbox.clear();
  conn.outbox_sent = 0;
}

void SketchServer::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Connections accepted mid-iteration have no pollfd entry yet; only
    // the first `polled` entries of connections_ map onto fds[i + 2].
    const size_t polled = connections_.size();
    std::vector<pollfd> fds;
    fds.reserve(polled + 2);
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (std::unique_ptr<Connection>& conn : connections_) {
      short events = POLLIN;
      if (conn->HasUnsent()) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd, events, 0});
    }
    int ready = ::poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) break;
    if (stop_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;

    if (fds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) AcceptNew();
    for (size_t i = 0; i < polled; ++i) {
      short revents = fds[i + 2].revents;
      Connection& conn = *connections_[i];
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) conn.eof = true;
      if ((revents & POLLIN) && !conn.eof && !conn.close_after_flush) {
        DrainReadable(conn);
      }
    }

    DispatchRound();

    // Opportunistic flush (most responses fit the socket buffer, so the
    // common case completes without waiting for a POLLOUT wakeup).
    for (size_t i = 0; i < connections_.size();) {
      Connection& conn = *connections_[i];
      FlushWritable(conn);
      if ((conn.eof && !conn.HasUnsent() && conn.inbox.empty()) ||
          (conn.close_after_flush && !conn.HasUnsent())) {
        ::close(conn.fd);
        connections_.erase(connections_.begin() +
                           static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  }
}

}  // namespace davinci::server
