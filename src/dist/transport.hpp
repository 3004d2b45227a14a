// Byte transport for the distributed campaign control plane: newline-framed
// JSON messages (the same one-object-per-line convention as util/jsonl and
// the campaign ledger) over local stream sockets.
//
// Two shapes are supported:
//   * UnixListener / connect_unix — a coordinator listening on a filesystem
//     socket path, workers dialing in. This is the production transport for
//     a multi-process fleet on one host.
//   * socketpair_channel — a pre-connected pair for in-process tests and
//     for parent-spawned workers talking over inherited fds (the stdio-pipe
//     shape: LineChannel works over any stream fd).
//
// Everything here is deliberately robust to peer death rather than fast:
// sends report a closed peer as `false` (never SIGPIPE, never throw —
// worker death is an expected event, handled by lease expiry, not by
// exception control flow), and receives are poll(2)-bounded so a silent
// peer can never wedge the coordinator loop.
//
// The serving loops block on readiness, not on sleeps: a PollSet gathers
// every listener and channel fd (plus a Waker for events that arrive
// without a socket — executor completions, signals) into one poll(2).
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mpe::dist {

/// One newline-framed message channel over a stream fd (socket or pipe).
/// Owns the fd. Not thread-safe; each channel belongs to one loop.
class LineChannel {
 public:
  explicit LineChannel(int fd);
  ~LineChannel();
  LineChannel(LineChannel&& other) noexcept;
  LineChannel& operator=(LineChannel&& other) noexcept;
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Sends `line` plus the '\n' frame terminator. Returns false when the
  /// peer is gone (EPIPE/ECONNRESET) or the channel is closed; never raises
  /// SIGPIPE, never throws. `line` must not contain '\n'.
  bool send_line(std::string_view line);

  enum class RecvStatus { kLine, kTimeout, kClosed, kOverflow };

  /// Receives one complete line (without the terminator) into `line`,
  /// waiting up to `timeout` for bytes to arrive. kClosed means the peer
  /// hung up and no buffered line remains. kOverflow means the peer blew
  /// past the recv limit without framing a line: the partial buffer is
  /// discarded but the channel stays open, so the caller can send back a
  /// protocol error before closing (a silently dropped connection is
  /// indistinguishable from a network fault to the peer).
  RecvStatus recv_line(std::string& line, std::chrono::milliseconds timeout);

  /// True when at least one complete buffered line is ready (no syscall).
  bool line_buffered() const;

  /// Caps the receive buffer: when a peer streams more than `bytes` without
  /// a newline, recv_line discards the partial buffer and reports kOverflow.
  /// 0 (the default) means unlimited. Servers facing untrusted peers set
  /// this so a frame-less flood can never grow memory without bound.
  void set_recv_limit(std::size_t bytes) { recv_limit_ = bytes; }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t recv_limit_ = 0;
};

/// Transport-agnostic listening end: the coordinator's serve loop accepts
/// line channels without caring whether they arrived over a Unix socket or
/// TCP (the multi-host seam). Implementations throw mpe::Error(kIo) only
/// for unrecoverable listener failures.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Accepts one connection, waiting up to `timeout`; nullptr on timeout.
  virtual std::unique_ptr<LineChannel> accept(
      std::chrono::milliseconds timeout) = 0;

  /// The listening fd (readable when a connection is pending; -1 closed).
  virtual int fd() const = 0;
};

/// Listening end of a Unix-domain socket. Binding unlinks a stale socket
/// file first (a crashed coordinator must be restartable in place).
class UnixListener final : public Listener {
 public:
  explicit UnixListener(const std::string& path);  ///< throws Error(kIo)
  ~UnixListener() override;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Accepts one connection, waiting up to `timeout`; nullptr on timeout.
  /// Throws mpe::Error(kIo) only for unrecoverable listener failures.
  std::unique_ptr<LineChannel> accept(
      std::chrono::milliseconds timeout) override;

  const std::string& path() const { return path_; }
  int fd() const override { return fd_; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Dials a Unix-domain socket. nullptr when the coordinator is not (yet)
/// there — callers retry under their backoff policy.
std::unique_ptr<LineChannel> connect_unix(const std::string& path);

/// Listening end of a TCP socket (the multi-host seam of ROADMAP item 3;
/// the line protocol is identical to the Unix transport). Binds `host`
/// (an IPv4 literal, loopback by default) with SO_REUSEADDR; port 0 asks
/// the kernel for an ephemeral port, readable back via port().
class TcpListener final : public Listener {
 public:
  explicit TcpListener(std::uint16_t port,
                       const std::string& host = "127.0.0.1");
  ~TcpListener() override;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Accepts one connection, waiting up to `timeout`; nullptr on timeout.
  /// Accepted channels have TCP_NODELAY set (request/reply lines are tiny).
  std::unique_ptr<LineChannel> accept(
      std::chrono::milliseconds timeout) override;

  /// The bound port (the kernel's pick when constructed with port 0).
  std::uint16_t port() const { return port_; }
  int fd() const override { return fd_; }
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Dials host:port (IPv4 literal). nullptr when the server is not (yet)
/// reachable — callers retry under their backoff policy.
std::unique_ptr<LineChannel> connect_tcp(const std::string& host,
                                         std::uint16_t port);

/// Wakes a loop blocked in PollSet::wait from another thread or from a
/// signal handler: an eventfd that turns readable on wake(). Wake-ups
/// coalesce; the loop clear()s the fd before it re-checks whatever the wake
/// announced, so a wake-up that races the check is never lost.
class Waker {
 public:
  Waker();  ///< throws Error(kIo) on OS failure
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// Async-signal-safe (one write(2)); callable from any thread.
  void wake() const noexcept;
  /// Consumes pending wake-ups.
  void clear() const noexcept;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// One poll(2) over a set of fds, all watched for readability (a hung-up
/// or failed peer also reads as ready — the next recv reports it). Built
/// fresh for each wait; negative fds are skipped.
class PollSet {
 public:
  using Clock = std::chrono::steady_clock;

  void add(int fd);
  /// Blocks until an fd is ready or `deadline` passes (time_point::max()
  /// blocks indefinitely). Returns the number of ready fds (0 on timeout).
  int wait(Clock::time_point deadline);

 private:
  std::vector<pollfd> fds_;
};

/// A connected channel pair (AF_UNIX socketpair) for in-process tests and
/// pipe-shaped deployments. Throws mpe::Error(kIo) on OS failure.
std::pair<std::unique_ptr<LineChannel>, std::unique_ptr<LineChannel>>
socketpair_channel();

}  // namespace mpe::dist
