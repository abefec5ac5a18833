#include "rdma/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"

namespace dhnsw::rdma {

namespace {

constexpr uint32_t kFrameMagic = 0x64524e47;  // "dRNG"
/// Caps a frame a corrupted peer could make us allocate for.
constexpr uint32_t kMaxWrsPerFrame = 1u << 20;
constexpr uint64_t kMaxPayloadPerWr = 1ull << 32;

/// Fixed-size WR descriptor on the wire (host byte order: loopback only).
struct WireWr {
  uint8_t opcode = 0;
  uint8_t pad[3] = {0, 0, 0};
  uint32_t rkey = 0;
  uint64_t remote_offset = 0;
  uint64_t length = 0;  ///< local buffer size (payload for READ/WRITE)
  uint64_t expected_epoch = 0;
  uint64_t compare = 0;
  uint64_t swap_or_add = 0;
};
static_assert(sizeof(WireWr) == 48);

/// Per-WR completion on the wire.
struct WireCompletion {
  uint8_t status = 0;
  uint8_t opcode = 0;
  uint8_t pad[2] = {0, 0};
  uint32_t byte_len = 0;
  uint64_t atomic_result = 0;
};
static_assert(sizeof(WireCompletion) == 16);

struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint32_t num_wrs = 0;
};
static_assert(sizeof(FrameHeader) == 8);

/// Full-buffer read; false on EOF/error. EINTR is retried; a receive timeout
/// (EAGAIN/EWOULDBLOCK from SO_RCVTIMEO) sets `*timed_out` when non-null.
bool ReadFull(int fd, void* buf, size_t len, bool* timed_out = nullptr) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n > 0) {
      p += n;
      len -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && timed_out != nullptr) {
      *timed_out = true;
    }
    return false;
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      len -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// One QueuePair's connection. Reuses its serialization buffers across rings
/// so steady-state execution performs no per-ring allocation once warmed.
class TcpChannel final : public TransportChannel {
 public:
  TcpChannel(uint16_t port, const TransportOptions& options, uint64_t jitter_seed)
      : port_(port),
        recv_timeout_ms_(options.tcp_recv_timeout_ms),
        connect_timeout_ms_(options.tcp_connect_timeout_ms),
        reconnect_initial_backoff_ns_(options.tcp_reconnect_initial_backoff_ns),
        reconnect_max_backoff_ns_(options.tcp_reconnect_max_backoff_ns),
        rng_(jitter_seed) {}

  ~TcpChannel() override { CloseFd(fd_); }

  uint64_t ExecuteRing(std::span<const WorkRequest> wrs, std::span<Completion> completions,
                       const RingFaultContext& faults) override {
    (void)faults;  // injection happens in ChaosChannel before WRs get here
    const auto start = std::chrono::steady_clock::now();
    const bool ok = RoundTrip(wrs, completions);
    const auto end = std::chrono::steady_clock::now();
    if (!ok) {
      // A failed round trip poisons the connection: drop it so the next ring
      // reconnects cleanly instead of desynchronizing on a half-read frame.
      CloseFd(fd_);
      ++consecutive_failures_;
      const WcStatus status = timed_out_ ? WcStatus::kTimeout : WcStatus::kRemoteUnreachable;
      for (size_t i = 0; i < wrs.size(); ++i) {
        completions[i] = Completion{wrs[i].wr_id, wrs[i].opcode, status, 0, 0};
      }
    } else {
      consecutive_failures_ = 0;
    }
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  }

  /// Chaos hook: sever the connection. The next ring reconnects (with
  /// backoff once failures accumulate). Closing mid-ring from another thread
  /// is NOT supported — channels are single-threaded like their QP.
  void Disconnect() override { CloseFd(fd_); }

 private:
  /// Jittered exponential backoff between reconnect attempts: doubling from
  /// the configured initial to the cap, each wait drawn uniformly from
  /// [backoff/2, 3*backoff/2] so a herd of channels re-dialing a rebooted
  /// memory node decorrelates instead of synchronizing.
  void BackoffBeforeReconnect() {
    if (consecutive_failures_ == 0 || reconnect_initial_backoff_ns_ == 0) return;
    uint64_t backoff = reconnect_initial_backoff_ns_;
    for (uint32_t i = 1; i < consecutive_failures_ && backoff < reconnect_max_backoff_ns_;
         ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, reconnect_max_backoff_ns_);
    const uint64_t jittered = backoff / 2 + rng_.NextBounded(backoff + 1);
    std::this_thread::sleep_for(std::chrono::nanoseconds(jittered));
  }

  /// Non-blocking connect + poll with a deadline: a black-holed address
  /// surfaces as a failed connect after connect_timeout_ms_ instead of
  /// wedging the compute thread in a blocking connect(2) for minutes.
  bool ConnectWithDeadline(const sockaddr_in& addr) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) return false;
    int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) return false;
    if (rc != 0) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      const int timeout_ms = connect_timeout_ms_ == 0
                                 ? -1
                                 : static_cast<int>(connect_timeout_ms_);
      int pr;
      do {
        pr = ::poll(&pfd, 1, timeout_ms);
      } while (pr < 0 && errno == EINTR);
      if (pr <= 0) return false;  // timeout (0) or poll error
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        return false;
      }
    }
    // Back to blocking; SO_RCVTIMEO governs the data-plane deadlines.
    return ::fcntl(fd_, F_SETFL, flags) == 0;
  }

  bool Connect() {
    if (fd_ >= 0) return true;
    BackoffBeforeReconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (recv_timeout_ms_ > 0) {
      timeval tv{};
      tv.tv_sec = recv_timeout_ms_ / 1000;
      tv.tv_usec = static_cast<suseconds_t>((recv_timeout_ms_ % 1000) * 1000);
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (!ConnectWithDeadline(addr)) {
      CloseFd(fd_);
      return false;
    }
    return true;
  }

  bool RoundTrip(std::span<const WorkRequest> wrs, std::span<Completion> completions) {
    timed_out_ = false;
    if (!Connect()) return false;

    // --- request frame: header + descriptors + WRITE payloads ---
    size_t write_bytes = 0;
    for (const WorkRequest& wr : wrs) {
      if (wr.opcode == Opcode::kWrite) write_bytes += wr.local.size();
    }
    request_.clear();
    request_.resize(sizeof(FrameHeader) + wrs.size() * sizeof(WireWr) + write_bytes);
    FrameHeader header;
    header.num_wrs = static_cast<uint32_t>(wrs.size());
    std::memcpy(request_.data(), &header, sizeof header);
    size_t off = sizeof(FrameHeader);
    for (const WorkRequest& wr : wrs) {
      WireWr w;
      w.opcode = static_cast<uint8_t>(wr.opcode);
      w.rkey = wr.rkey;
      w.remote_offset = wr.remote_offset;
      w.length = wr.local.size();
      w.expected_epoch = wr.expected_epoch;
      w.compare = wr.compare;
      w.swap_or_add = wr.swap_or_add;
      std::memcpy(request_.data() + off, &w, sizeof w);
      off += sizeof w;
    }
    for (const WorkRequest& wr : wrs) {
      if (wr.opcode != Opcode::kWrite || wr.local.empty()) continue;
      std::memcpy(request_.data() + off, wr.local.data(), wr.local.size());
      off += wr.local.size();
    }
    if (!WriteFull(fd_, request_.data(), request_.size())) return false;

    // --- response frame: header + completions + READ payloads ---
    FrameHeader resp;
    if (!ReadFull(fd_, &resp, sizeof resp, &timed_out_)) return false;
    if (resp.magic != kFrameMagic || resp.num_wrs != wrs.size()) return false;
    response_.clear();
    response_.resize(wrs.size() * sizeof(WireCompletion));
    if (!ReadFull(fd_, response_.data(), response_.size(), &timed_out_)) return false;
    size_t read_bytes = 0;
    for (size_t i = 0; i < wrs.size(); ++i) {
      WireCompletion wc;
      std::memcpy(&wc, response_.data() + i * sizeof(WireCompletion), sizeof wc);
      Completion& c = completions[i];
      c.wr_id = wrs[i].wr_id;
      c.opcode = wrs[i].opcode;
      c.status = static_cast<WcStatus>(wc.status);
      c.byte_len = wc.byte_len;
      c.atomic_result = wc.atomic_result;
      if (wrs[i].opcode == Opcode::kRead && c.status == WcStatus::kSuccess) {
        if (c.byte_len != wrs[i].local.size()) {
          c.status = WcStatus::kLocalLengthError;
          return false;  // stream is desynchronized; drop the connection
        }
        read_bytes += c.byte_len;
      }
    }
    // READ payloads land straight into the posted local buffers.
    for (size_t i = 0; i < wrs.size(); ++i) {
      if (wrs[i].opcode != Opcode::kRead || completions[i].status != WcStatus::kSuccess) {
        continue;
      }
      if (!ReadFull(fd_, wrs[i].local.data(), wrs[i].local.size(), &timed_out_)) return false;
    }
    (void)read_bytes;
    return true;
  }

  uint16_t port_;
  uint32_t recv_timeout_ms_;
  uint32_t connect_timeout_ms_;
  uint64_t reconnect_initial_backoff_ns_;
  uint64_t reconnect_max_backoff_ns_;
  int fd_ = -1;
  bool timed_out_ = false;
  uint32_t consecutive_failures_ = 0;
  Xoshiro256 rng_;  ///< reconnect jitter, deterministic per channel
  std::vector<uint8_t> request_;
  std::vector<uint8_t> response_;
};

}  // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Create(const TransportOptions& options) {
  std::unique_ptr<TcpTransport> transport(new TcpTransport(options));
  Status st = Status::Ok();
  // Ephemeral-port retry: with tcp_port == 0 the kernel hands out a free
  // port, but a transient bind/listen failure under parallel ctest load is
  // still retried a few times rather than flaking the whole test binary.
  for (int attempt = 0; attempt < 4; ++attempt) {
    st = transport->Start();
    if (st.ok()) return transport;
  }
  return st;
}

Status TcpTransport::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("tcp transport: socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.tcp_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd_);
    return Status::Unavailable("tcp transport: bind/listen on loopback failed: " + err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd_);
    return Status::Internal("tcp transport: getsockname(): " + err);
  }
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

TcpTransport::~TcpTransport() { Shutdown(); }

void TcpTransport::set_hang_handlers(bool hang) {
  {
    std::lock_guard<std::mutex> lock(hang_mutex_);
    hang_handlers_ = hang;
  }
  hang_cv_.notify_all();
}

void TcpTransport::Shutdown() {
  if (stopping_.exchange(true)) return;
  hang_cv_.notify_all();  // release handlers parked by set_hang_handlers(true)
  // shutdown() wakes the accept() the loop is parked in; the descriptor is
  // closed (and reset) only after the loop has exited, since it reads it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  std::vector<std::unique_ptr<Conn>> handlers;
  {
    std::lock_guard<std::mutex> lock(handler_mutex_);
    handlers.swap(handlers_);
  }
  // Half-close every connection FIRST: a handler parked in recv() wakes with
  // EOF even when its client end is still open (e.g. the transport dies
  // before some QueuePair), so the joins below can never deadlock.
  for (const auto& conn : handlers) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : handlers) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void TcpTransport::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (shutdown) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(handler_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    handlers_.push_back(std::move(conn));
    raw->thread = std::thread([this, fd] { ServeConnection(fd); });
  }
}

void TcpTransport::ServeConnection(int fd) {
  std::vector<uint8_t> descriptors;
  std::vector<uint8_t> payload_in;    // WRITE payloads from the client
  std::vector<uint8_t> payload_out;   // READ payloads back to the client
  std::vector<WorkRequest> wrs;
  std::vector<Completion> completions;
  std::vector<uint8_t> response;

  for (;;) {
    FrameHeader header;
    if (!ReadFull(fd, &header, sizeof header)) break;
    if (header.magic != kFrameMagic || header.num_wrs == 0 ||
        header.num_wrs > kMaxWrsPerFrame) {
      break;  // protocol violation: drop the connection
    }
    descriptors.resize(header.num_wrs * sizeof(WireWr));
    if (!ReadFull(fd, descriptors.data(), descriptors.size())) break;

    uint64_t write_bytes = 0;
    uint64_t read_bytes = 0;
    bool sane = true;
    wrs.assign(header.num_wrs, WorkRequest{});
    for (uint32_t i = 0; i < header.num_wrs && sane; ++i) {
      WireWr w;
      std::memcpy(&w, descriptors.data() + i * sizeof(WireWr), sizeof w);
      if (w.length > kMaxPayloadPerWr) {
        sane = false;
        break;
      }
      WorkRequest& wr = wrs[i];
      wr.opcode = static_cast<Opcode>(w.opcode);
      wr.rkey = w.rkey;
      wr.remote_offset = w.remote_offset;
      wr.expected_epoch = w.expected_epoch;
      wr.compare = w.compare;
      wr.swap_or_add = w.swap_or_add;
      if (wr.opcode == Opcode::kWrite) {
        write_bytes += w.length;
      } else if (wr.opcode == Opcode::kRead) {
        read_bytes += w.length;
      }
      // Length is carried via the local span size, wired up below once the
      // payload buffers have their final size (resize may move them).
      wr.wr_id = w.length;
    }
    if (!sane) break;

    payload_in.resize(write_bytes);
    if (!ReadFull(fd, payload_in.data(), payload_in.size())) break;
    payload_out.resize(read_bytes);

    size_t in_off = 0;
    size_t out_off = 0;
    for (WorkRequest& wr : wrs) {
      const size_t length = static_cast<size_t>(wr.wr_id);
      wr.wr_id = 0;
      if (wr.opcode == Opcode::kWrite) {
        wr.local = {payload_in.data() + in_off, length};
        in_off += length;
      } else if (wr.opcode == Opcode::kRead) {
        wr.local = {payload_out.data() + out_off, length};
        out_off += length;
      }
    }

    // Chaos hook: a "hung" memory node has accepted and fully read the
    // request but never executes or answers — park here until released.
    {
      std::unique_lock<std::mutex> lock(hang_mutex_);
      hang_cv_.wait(lock, [this] { return !hang_handlers_ || stopping_.load(); });
      if (stopping_.load()) break;
    }

    completions.assign(wrs.size(), Completion{});
    ExecuteRingLocal(wrs, completions, RingFaultContext{});

    response.clear();
    response.resize(sizeof(FrameHeader) + wrs.size() * sizeof(WireCompletion));
    FrameHeader resp;
    resp.num_wrs = header.num_wrs;
    std::memcpy(response.data(), &resp, sizeof resp);
    size_t off = sizeof(FrameHeader);
    for (const Completion& c : completions) {
      WireCompletion wc;
      wc.status = static_cast<uint8_t>(c.status);
      wc.opcode = static_cast<uint8_t>(c.opcode);
      wc.byte_len = c.byte_len;
      wc.atomic_result = c.atomic_result;
      std::memcpy(response.data() + off, &wc, sizeof wc);
      off += sizeof wc;
    }
    if (!WriteFull(fd, response.data(), response.size())) break;
    // READ payloads, successful WRs only, posted order.
    bool write_ok = true;
    for (size_t i = 0; i < wrs.size() && write_ok; ++i) {
      if (wrs[i].opcode != Opcode::kRead || completions[i].status != WcStatus::kSuccess) {
        continue;
      }
      write_ok = WriteFull(fd, wrs[i].local.data(), wrs[i].local.size());
    }
    if (!write_ok) break;
  }
  // Half-close only: Shutdown() closes the fd after joining this thread.
  ::shutdown(fd, SHUT_RDWR);
}

std::unique_ptr<TransportChannel> TcpTransport::CreateChannel() {
  // Per-channel jitter seed: stable for a given (port, creation order), so
  // reconnect waits are reproducible within a process without being equal
  // across channels.
  static std::atomic<uint64_t> counter{0};
  const uint64_t seed =
      SplitMix64((uint64_t{port_} << 32) ^ counter.fetch_add(1)).Next();
  return std::make_unique<TcpChannel>(port_, options_, seed);
}

}  // namespace dhnsw::rdma
