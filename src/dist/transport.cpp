#include "dist/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/status.hpp"

namespace mpe::dist {

namespace {

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Waits for `events` on `fd` up to `timeout`. Returns true when ready.
bool poll_fd(int fd, short events, std::chrono::milliseconds timeout) {
  struct pollfd p{};
  p.fd = fd;
  p.events = events;
  const int rc = ::poll(&p, 1, static_cast<int>(timeout.count()));
  return rc > 0 && (p.revents & (events | POLLHUP | POLLERR)) != 0;
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof addr.sun_path) {
    throw Error(ErrorCode::kUsage, "socket path too long",
                ErrorContext{}.kv("path", path).str());
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

LineChannel::LineChannel(int fd) : fd_(fd) {
  if (fd_ >= 0) set_cloexec(fd_);
}

LineChannel::~LineChannel() { close(); }

LineChannel::LineChannel(LineChannel&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)) {}

LineChannel& LineChannel::operator=(LineChannel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void LineChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool LineChannel::send_line(std::string_view line) {
  if (fd_ < 0) return false;
  std::string framed(line);
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a dead peer is an expected event reported as `false`,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!poll_fd(fd_, POLLOUT, std::chrono::milliseconds(1000))) {
          return false;
        }
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineChannel::line_buffered() const {
  return buf_.find('\n') != std::string::npos;
}

LineChannel::RecvStatus LineChannel::recv_line(
    std::string& line, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto eol = buf_.find('\n');
    if (eol != std::string::npos) {
      line.assign(buf_, 0, eol);
      buf_.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return RecvStatus::kLine;
    }
    if (fd_ < 0) return RecvStatus::kClosed;
    const auto now = std::chrono::steady_clock::now();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    if (left.count() < 0) return RecvStatus::kTimeout;
    if (!poll_fd(fd_, POLLIN, left)) return RecvStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      // Backpressure against frame-less floods: a peer that streams past
      // the limit without ever terminating a line gets its partial buffer
      // discarded, but the channel is left open so the caller can answer
      // with a protocol error before hanging up.
      if (recv_limit_ > 0 && buf_.size() > recv_limit_ &&
          buf_.find('\n') == std::string::npos) {
        buf_.clear();
        return RecvStatus::kOverflow;
      }
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return RecvStatus::kClosed;  // orderly shutdown or hard reset
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw Error(ErrorCode::kIo, "cannot create listening socket",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
  set_cloexec(fd_);
  // A crashed coordinator leaves its socket file behind; the restarted one
  // must be able to take over in place.
  ::unlink(path.c_str());
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd_, 64) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error(ErrorCode::kIo, "cannot bind/listen on socket",
                ErrorContext{}.kv("path", path).kv("errno", detail).str());
  }
}

UnixListener::~UnixListener() { close(); }

void UnixListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
  }
}

std::unique_ptr<LineChannel> UnixListener::accept(
    std::chrono::milliseconds timeout) {
  if (fd_ < 0) {
    throw Error(ErrorCode::kIo, "accept on a closed listener");
  }
  if (!poll_fd(fd_, POLLIN, timeout)) return nullptr;
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return nullptr;  // transient: the dialer vanished between poll and accept
    }
    throw Error(ErrorCode::kIo, "accept failed",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
  return std::make_unique<LineChannel>(conn);
}

std::unique_ptr<LineChannel> connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  set_cloexec(fd);
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<LineChannel>(fd);
}

namespace {

sockaddr_in make_tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error(ErrorCode::kUsage, "invalid IPv4 host address",
                ErrorContext{}.kv("host", host).str());
  }
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpListener::TcpListener(std::uint16_t port, const std::string& host) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw Error(ErrorCode::kIo, "cannot create TCP listening socket",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
  set_cloexec(fd_);
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  try {
    addr = make_tcp_addr(host, port);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd_, 64) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error(ErrorCode::kIo, "cannot bind/listen on TCP port",
                ErrorContext{}.kv("host", host)
                    .kv("port", static_cast<std::uint64_t>(port))
                    .kv("errno", detail)
                    .str());
  }
  // Port 0 asks the kernel for an ephemeral port; read the real one back so
  // tests and smoke scripts can hand it to clients.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<LineChannel> TcpListener::accept(
    std::chrono::milliseconds timeout) {
  if (fd_ < 0) {
    throw Error(ErrorCode::kIo, "accept on a closed listener");
  }
  if (!poll_fd(fd_, POLLIN, timeout)) return nullptr;
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return nullptr;  // transient: the dialer vanished between poll and accept
    }
    throw Error(ErrorCode::kIo, "accept failed",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
  set_nodelay(conn);
  return std::make_unique<LineChannel>(conn);
}

std::unique_ptr<LineChannel> connect_tcp(const std::string& host,
                                         std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  set_cloexec(fd);
  sockaddr_in addr;
  try {
    addr = make_tcp_addr(host, port);
  } catch (...) {
    ::close(fd);
    throw;  // a malformed host is a caller bug, not a retryable miss
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return nullptr;
  }
  set_nodelay(fd);
  return std::make_unique<LineChannel>(fd);
}

Waker::Waker() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) {
    throw Error(ErrorCode::kIo, "eventfd failed",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
}

Waker::~Waker() { ::close(fd_); }

void Waker::wake() const noexcept {
  const int saved_errno = errno;  // a signal handler must leave errno alone
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already reads as readable: nothing is lost.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof one);
  errno = saved_errno;
}

void Waker::clear() const noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof count);
}

void PollSet::add(int fd) {
  if (fd >= 0) fds_.push_back(pollfd{fd, POLLIN, 0});
}

int PollSet::wait(Clock::time_point deadline) {
  int timeout_ms = -1;
  if (deadline != Clock::time_point::max()) {
    // Round up: waking a hair early would find the deadline not yet due
    // and spin once more.
    const auto left = deadline - Clock::now();
    const auto ms =
        std::chrono::ceil<std::chrono::milliseconds>(left).count();
    timeout_ms = static_cast<int>(std::clamp<long long>(ms, 0, 1 << 30));
  }
  const int rc = ::poll(fds_.data(), fds_.size(), timeout_ms);
  return rc > 0 ? rc : 0;  // EINTR (a signal) reads as a wake-up too
}

std::pair<std::unique_ptr<LineChannel>, std::unique_ptr<LineChannel>>
socketpair_channel() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    throw Error(ErrorCode::kIo, "socketpair failed",
                ErrorContext{}.kv("errno", std::strerror(errno)).str());
  }
  return {std::make_unique<LineChannel>(fds[0]),
          std::make_unique<LineChannel>(fds[1])};
}

}  // namespace mpe::dist
