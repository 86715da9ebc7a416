#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/logging.hpp"

namespace stab {

namespace {

constexpr uint32_t kKindHello = 1;
constexpr uint32_t kKindData = 2;

// epoll_event::data.u32 holds a peer id or one of these tags. An accepted
// socket awaiting its HELLO is tagged kUnidentifiedTag | fd.
constexpr uint32_t kListenTag = 0xffffffff;
constexpr uint32_t kWakeTag = 0xfffffffe;
constexpr uint32_t kUnidentifiedTag = 0x80000000;

// An accepted socket that has not sent its HELLO by then is closed.
constexpr Duration kHelloTimeout = millis(100);

// Bounds on each pool of received-payload buffers kept for reuse: enough
// for a burst of coalesced frames, and a buffer grown by a large frame is
// freed rather than kept.
constexpr size_t kMaxPooledBuffers = 128;
constexpr size_t kMaxPooledBufferBytes = 16 * 1024;

void recycle(Bytes buf, std::vector<Bytes>& pool) {
  if (pool.size() < kMaxPooledBuffers &&
      buf.capacity() <= kMaxPooledBufferBytes)
    pool.push_back(std::move(buf));
}

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const TcpPeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
  inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  return sa;
}

void check_body_size(size_t size) {
  if (size > TcpTransport::kMaxFrameBody)
    throw std::invalid_argument("TcpTransport: frame body exceeds 64 MiB");
}

}  // namespace

std::vector<TcpPeerAddr> loopback_addrs(size_t n, uint16_t base_port) {
  std::vector<TcpPeerAddr> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(TcpPeerAddr{"127.0.0.1",
                              static_cast<uint16_t>(base_port + i)});
  return out;
}

// Frame layout on the wire: u32 body_len | u32 kind | u32 src | body. The
// returned frame carries the prefix; the caller attaches the body.
TcpTransport::OutFrame TcpTransport::make_frame(uint32_t kind, NodeId src,
                                                size_t body_size) {
  OutFrame f;
  const uint32_t fields[3] = {static_cast<uint32_t>(body_size) + 8, kind, src};
  static_assert(sizeof fields == sizeof f.prefix);
  std::memcpy(f.prefix, fields, sizeof fields);  // little-endian host
  return f;
}

TcpTransport::TcpTransport(NodeId self, std::vector<TcpPeerAddr> peers,
                           TcpTransportOptions options)
    : self_(self),
      peers_(std::move(peers)),
      opts_(options),
      conns_(peers_.size()),
      pending_(peers_.size()),
      pending_bytes_(peers_.size(), 0),
      backoff_(peers_.size(), Duration::zero()),
      jitter_rng_(options.jitter_seed ^
                  (0x9e3779b97f4a7c15ULL * (self + 1))) {
  STAB_OBS({
    obs::MetricsRegistry& reg = obs::global();
    obs_dial_attempts_ = &reg.counter("net.tcp.dial_attempts");
    obs_connects_ = &reg.counter("net.tcp.connects");
    obs_reconnects_ = &reg.counter("net.tcp.reconnects");
    obs_disconnects_ = &reg.counter("net.tcp.disconnects");
    obs_pending_dropped_ = &reg.counter("net.tcp.pending_dropped_frames");
    obs_send_blocked_ = &reg.counter("net.tcp.send_blocked");
    obs_pending_bytes_ = &reg.gauge("net.tcp.pending_bytes");
    obs_was_connected_.assign(peers_.size(), false);
  });
  epoll_fd_ = epoll_create1(0);
  wake_fd_ = eventfd(0, EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kWakeTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  start_listen();
  io_thread_ = std::thread([this] { io_loop(); });
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof one);
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& c : conns_)
      if (c.fd >= 0) {
        close(c.fd);
        c.fd = -1;
      }
    // Return this transport's buffered bytes to the process-wide gauge so
    // it reads 0 once every transport is down.
    STAB_OBS({
      for (size_t b : pending_bytes_)
        if (b > 0) obs_pending_bytes_->add(-static_cast<int64_t>(b));
    });
  }
  for (const Unidentified& u : unidentified_) close(u.fd);
  unidentified_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  env_.shutdown();
}

void TcpTransport::set_receive_handler(ReceiveHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
}

void TcpTransport::send(NodeId dst, Bytes frame, uint64_t /*wire_size*/) {
  check_body_size(frame.size());
  if (dst == self_ || dst >= peers_.size()) return;
  OutFrame out = make_frame(kKindData, self_, frame.size());
  out.owned = std::move(frame);
  enqueue_or_pend(dst, std::move(out));
}

void TcpTransport::send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                               uint64_t /*wire_size*/) {
  check_body_size(frame->size());
  if (dst == self_ || dst >= peers_.size()) return;
  // Queue the prefix plus a reference on the caller's buffer; the socket
  // write scatter-gathers both with one writev. A broadcast's N sends share
  // one body allocation.
  OutFrame out = make_frame(kKindData, self_, frame->size());
  out.shared = std::move(frame);
  enqueue_or_pend(dst, std::move(out));
}

// No lost wake-up: a connected peer's outq is tested and pushed under
// mutex_, and the IO thread drains it under mutex_ until it is empty or
// sendmsg returns EAGAIN, which arms EPOLLOUT. So a non-empty outq always
// has either a wake in flight (written when it went non-empty, and read by
// handle_wake before it scans the queues) or EPOLLOUT armed; a frame that
// lands behind it goes out with the same drain.
void TcpTransport::enqueue_or_pend(NodeId dst, OutFrame frame) {
  bool wake = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Conn& c = conns_[dst];
    if (c.fd >= 0 && !c.connecting) {
      wake = c.outq.empty();
      c.outq.push_back(std::move(frame));
    } else {
      pending_bytes_[dst] += frame.size();
      STAB_OBS(obs_pending_bytes_->add(static_cast<int64_t>(frame.size())));
      pending_[dst].push_back(std::move(frame));  // flushed on reconnect
      enforce_pending_bound_locked(dst);
    }
  }
  if (!wake) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof one);
}

size_t TcpTransport::connected_peers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (NodeId p = 0; p < conns_.size(); ++p)
    if (p != self_ && conns_[p].fd >= 0 && !conns_[p].connecting) ++n;
  return n;
}

uint64_t TcpTransport::pending_dropped_frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_dropped_;
}

size_t TcpTransport::pending_bytes(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peer < pending_bytes_.size() ? pending_bytes_[peer] : 0;
}

Duration TcpTransport::current_backoff(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peer < backoff_.size() ? backoff_[peer] : Duration::zero();
}

bool TcpTransport::wait_connected(Duration timeout) {
  TimePoint deadline = env_.now() + timeout;
  while (env_.now() < deadline) {
    if (connected_peers() + 1 == peers_.size()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return connected_peers() + 1 == peers_.size();
}

void TcpTransport::start_listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa = make_addr(peers_[self_]);
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    STAB_ERROR("tcp: bind failed on port " << peers_[self_].port << ": "
                                           << std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  listen(listen_fd_, 64);
  set_nonblocking(listen_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kListenTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
}

void TcpTransport::try_dial(NodeId peer) {
  // caller holds mutex_
  Conn& c = conns_[peer];
  if (c.fd >= 0) return;
  STAB_OBS(obs_dial_attempts_->inc());
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in sa = make_addr(peers_[peer]);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    c.retry_at = env_.now() + next_retry_delay_locked(peer);
    return;
  }
  c.fd = fd;
  c.connecting = (rc != 0);
  c.hello_sent = false;
  c.events = EPOLLIN | EPOLLOUT;
  epoll_event ev{};
  ev.events = c.events;
  ev.data.u32 = peer;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void TcpTransport::close_conn(NodeId peer, const char* why) {
  // caller holds mutex_
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  STAB_DEBUG("tcp node " << self_ << ": closing conn to " << peer << " ("
                         << why << ")");
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  close(c.fd);
  STAB_OBS(obs_disconnects_->inc());
  // Unsent frames go back to pending so they survive the reconnect.
  if (!c.outq.empty()) {
    // Drop the partially written frame: the peer would see a torn frame
    // anyway; it is re-sent by the data plane's retransmission layer.
    if (c.out_offset > 0) c.outq.pop_front();
    while (!c.outq.empty()) {
      pending_bytes_[peer] += c.outq.back().size();
      STAB_OBS(obs_pending_bytes_->add(
          static_cast<int64_t>(c.outq.back().size())));
      pending_[peer].push_front(std::move(c.outq.back()));
      c.outq.pop_back();
    }
    enforce_pending_bound_locked(peer);
  }
  c = Conn{};
  c.retry_at = env_.now() + next_retry_delay_locked(peer);
}

Duration TcpTransport::next_retry_delay_locked(NodeId peer) {
  Duration& b = backoff_[peer];
  b = b == Duration::zero() ? opts_.reconnect_initial
                            : std::min(opts_.reconnect_max, b * 2);
  double jitter =
      1.0 + opts_.reconnect_jitter * (jitter_rng_.next_double() * 2.0 - 1.0);
  return std::chrono::duration_cast<Duration>(b * jitter);
}

void TcpTransport::enforce_pending_bound_locked(NodeId peer) {
  if (opts_.max_pending_bytes == 0) return;
  auto& q = pending_[peer];
  // Keep at least the newest frame so a single frame larger than the bound
  // still goes out eventually.
  while (pending_bytes_[peer] > opts_.max_pending_bytes && q.size() > 1) {
    pending_bytes_[peer] -= q.front().size();
    STAB_OBS({
      obs_pending_bytes_->add(-static_cast<int64_t>(q.front().size()));
      obs_pending_dropped_->inc();
    });
    q.pop_front();
    ++pending_dropped_;
  }
}

void TcpTransport::flush_pending_locked(NodeId peer) {
  Conn& c = conns_[peer];
  if (!c.hello_sent) {
    c.outq.push_front(make_frame(kKindHello, self_, 0));
    c.hello_sent = true;
    c.out_offset = 0;
  }
  while (!pending_[peer].empty()) {
    pending_bytes_[peer] -= pending_[peer].front().size();
    STAB_OBS(obs_pending_bytes_->add(
        -static_cast<int64_t>(pending_[peer].front().size())));
    c.outq.push_back(std::move(pending_[peer].front()));
    pending_[peer].pop_front();
  }
}

#if STAB_OBS_ENABLED
void TcpTransport::obs_on_connected_locked(NodeId peer) {
  obs_connects_->inc();
  if (obs_was_connected_[peer]) obs_reconnects_->inc();
  obs_was_connected_[peer] = true;
}
#endif

// Called after a write attempt, so a non-empty outq means sendmsg returned
// EAGAIN. epoll_ctl runs only when the mask changes.
void TcpTransport::rearm_epoll(NodeId peer) {
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  uint32_t events = EPOLLIN;
  if (!c.outq.empty() || c.connecting) events |= EPOLLOUT;
  if (events == c.events) return;
  c.events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.u32 = peer;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void TcpTransport::handle_accept() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    set_nodelay(fd);
    // The peer is unknown until its HELLO arrives. handle_hello reads it
    // when the socket turns readable, so a connector that sends nothing
    // holds up no other traffic.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kUnidentifiedTag | static_cast<uint32_t>(fd);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Unidentified u;
    u.fd = fd;
    u.deadline = env_.now() + kHelloTimeout;
    unidentified_.push_back(u);
  }
}

void TcpTransport::handle_hello(int fd) {
  auto it = std::find_if(unidentified_.begin(), unidentified_.end(),
                         [fd](const Unidentified& u) { return u.fd == fd; });
  if (it == unidentified_.end()) return;
  // Read no further than the HELLO: the frames behind it are parsed by
  // handle_readable once the socket is registered under its peer id.
  ssize_t n = recv(fd, it->hello + it->got, sizeof it->hello - it->got, 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n > 0) it->got += static_cast<size_t>(n);
  if (n > 0 && it->got < sizeof it->hello) return;
  const Unidentified u = *it;
  *it = unidentified_.back();
  unidentified_.pop_back();
  if (u.got < sizeof u.hello) {  // closed or failed before a full HELLO
    close(fd);
    return;
  }
  Reader r(BytesView(u.hello, sizeof u.hello));
  uint32_t body_len = r.u32();
  uint32_t kind = r.u32();
  NodeId src = r.u32();
  if (body_len != 8 || kind != kKindHello || src >= peers_.size() ||
      src == self_) {
    close(fd);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Conn& c = conns_[src];
  if (c.fd >= 0) {
    // Nothing authenticates a HELLO, so it may only replace a connection
    // that has never received a byte: a redial from the same dialer (the
    // smaller id) racing its first attempt. A live connection stays, and
    // the newcomer is closed; should the peer really have restarted, the
    // old connection fails on its next read or write and the redial after
    // the backoff lands.
    if (src < self_ && !c.received) {
      close_conn(src, "replaced by accepted conn");
    } else {
      close(fd);
      return;
    }
  }
  c.fd = fd;
  c.connecting = false;
  c.hello_sent = true;  // acceptor doesn't dial, no hello needed from us
  c.events = EPOLLIN;
  backoff_[src] = Duration::zero();  // live connection resets the backoff
  STAB_OBS(obs_on_connected_locked(src));
  epoll_event ev{};
  ev.events = c.events;
  ev.data.u32 = src;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  flush_pending_locked(src);
  write_locked(src);
}

void TcpTransport::expire_unidentified() {
  const TimePoint now = env_.now();
  for (size_t i = 0; i < unidentified_.size();) {
    if (unidentified_[i].deadline > now) {
      ++i;
      continue;
    }
    close(unidentified_[i].fd);
    unidentified_[i] = unidentified_.back();
    unidentified_.pop_back();
  }
}

void TcpTransport::handle_readable(NodeId peer) {
  std::unique_lock<std::mutex> lock(mutex_);
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.received = true;
      c.inbuf.insert(c.inbuf.end(), buf, buf + n);
    } else if (n == 0) {
      close_conn(peer, "peer closed");
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      close_conn(peer, "recv error");
      return;
    }
  }
  // Parse complete frames into ready_, each payload copied into a pooled
  // buffer. Under direct dispatch the handler is invoked on this IO thread —
  // but never while holding mutex_ (the handler's ingest path may call back
  // into send(), which takes it). Otherwise the frames go to the inbox for
  // the Env thread. Either way per-peer FIFO order is kept.
  const bool deliver = static_cast<bool>(handler_);
  size_t pos = 0;
  bool malformed = false;
  while (c.inbuf.size() - pos >= 4) {
    uint32_t body_len;
    std::memcpy(&body_len, c.inbuf.data() + pos, 4);
    // body_len covers kind, src and the payload, so it is at least 8; with
    // that the header reads below cannot run short. A prefix past the body
    // bound closes the connection before any more of its body is buffered.
    if (body_len < 8 || body_len - 8 > kMaxFrameBody) {
      malformed = true;
      break;
    }
    const size_t frame_len = 4 + static_cast<size_t>(body_len);
    if (c.inbuf.size() - pos < frame_len) break;
    Reader r(BytesView(c.inbuf.data() + pos + 4, 8));
    uint32_t kind = r.u32();
    NodeId src = r.u32();
    if (kind == kKindData && deliver) {
      Bytes payload = take_buffer();
      payload.assign(c.inbuf.begin() + static_cast<ptrdiff_t>(pos + 12),
                     c.inbuf.begin() + static_cast<ptrdiff_t>(pos + frame_len));
      ready_.push_back(InFrame{src, std::move(payload)});
    }
    pos += frame_len;
  }
  if (malformed) {
    close_conn(peer, "malformed frame");  // frames before it still go out
  } else {
    c.inbuf.erase(c.inbuf.begin(),
                  c.inbuf.begin() + static_cast<ptrdiff_t>(pos));
  }
  if (ready_.empty()) return;
  if (direct_dispatch_.load(std::memory_order_acquire)) {
    auto handler = handler_;
    lock.unlock();
    for (InFrame& f : ready_) {
      handler(f.src, BytesView(f.payload), f.payload.size());
      recycle(std::move(f.payload), spare_);
    }
    ready_.clear();
    return;
  }
  lock.unlock();
  bool post = false;
  {
    std::lock_guard<std::mutex> inbox(inbox_mutex_);
    post = inbox_.empty();  // else a drain task is already on its way
    for (InFrame& f : ready_) inbox_.push_back(std::move(f));
  }
  ready_.clear();
  if (post) env_.post([this] { drain_inbox(); });
}

// Env thread. The drain swaps the inbox out whole, so frames that arrive
// while it runs land in an empty inbox and post the next drain.
void TcpTransport::drain_inbox() {
  ReceiveHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handler = handler_;  // a removed handler drops what is still queued
  }
  {
    std::lock_guard<std::mutex> inbox(inbox_mutex_);
    draining_.swap(inbox_);
  }
  if (handler)
    for (const InFrame& f : draining_)
      handler(f.src, BytesView(f.payload), f.payload.size());
  {
    std::lock_guard<std::mutex> inbox(inbox_mutex_);
    for (InFrame& f : draining_) recycle(std::move(f.payload), returned_);
  }
  draining_.clear();
}

// IO thread: a buffer for the next received payload, from the IO thread's
// own pool, refilled with the buffers the Env thread has drained.
Bytes TcpTransport::take_buffer() {
  if (spare_.empty()) {
    std::lock_guard<std::mutex> inbox(inbox_mutex_);
    spare_.swap(returned_);
  }
  if (spare_.empty()) return {};
  Bytes b = std::move(spare_.back());
  spare_.pop_back();
  return b;
}

void TcpTransport::handle_writable(NodeId peer) {
  std::lock_guard<std::mutex> lock(mutex_);
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  if (c.connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close_conn(peer, "connect failed");
      return;
    }
    c.connecting = false;
    backoff_[peer] = Duration::zero();  // live connection resets the backoff
    STAB_OBS(obs_on_connected_locked(peer));
    flush_pending_locked(peer);
  }
  write_locked(peer);
}

void TcpTransport::handle_wake() {
  // One read resets the eventfd (non-semaphore mode). It comes before the
  // scan: a sender that fills an empty queue after it writes the eventfd
  // again, so that frame is written by this scan or by the next wake.
  uint64_t count = 0;
  [[maybe_unused]] ssize_t r = read(wake_fd_, &count, sizeof count);
  std::lock_guard<std::mutex> lock(mutex_);
  for (NodeId p = 0; p < conns_.size(); ++p) {
    const Conn& c = conns_[p];
    // A queue with EPOLLOUT armed waits for socket space; its EPOLLOUT
    // event drains it.
    if (c.fd >= 0 && !c.connecting && !c.outq.empty() &&
        !(c.events & EPOLLOUT))
      write_locked(p);
  }
}

void TcpTransport::write_locked(NodeId peer) {
  Conn& c = conns_[peer];
  // Scatter-gather up to 16 queued frames (prefix + body each) per
  // writev so a coalesced broadcast flush costs one syscall, not one per
  // frame. out_offset tracks progress within outq.front() only.
  while (!c.outq.empty()) {
    iovec iov[32];
    int iovcnt = 0;
    size_t queued = 0;
    for (; queued < c.outq.size(); ++queued) {
      if (iovcnt + 2 > static_cast<int>(std::size(iov))) break;
      const OutFrame& f = c.outq[queued];
      size_t skip = queued == 0 ? c.out_offset : 0;
      if (skip < sizeof f.prefix) {
        iov[iovcnt++] = {const_cast<uint8_t*>(f.prefix + skip),
                         sizeof f.prefix - skip};
        skip = 0;
      } else {
        skip -= sizeof f.prefix;
      }
      const BytesView body = f.body();
      if (skip < body.size())
        iov[iovcnt++] = {const_cast<uint8_t*>(body.data() + skip),
                         body.size() - skip};
    }
    if (iovcnt == 0) {  // front frame fully written (empty remainder)
      c.outq.pop_front();
      c.out_offset = 0;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      size_t written = static_cast<size_t>(n);
      while (written > 0 && !c.outq.empty()) {
        size_t left = c.outq.front().size() - c.out_offset;
        if (written >= left) {
          written -= left;
          c.outq.pop_front();
          c.out_offset = 0;
        } else {
          c.out_offset += written;
          written = 0;
        }
      }
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      STAB_OBS(if (!(c.events & EPOLLOUT)) obs_send_blocked_->inc());
      break;
    } else {
      close_conn(peer, "send error");
      return;
    }
  }
  rearm_epoll(peer);
}

void TcpTransport::io_loop() {
  while (!stop_.load()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Dial peers we are responsible for (smaller id dials larger).
      for (NodeId p = 0; p < peers_.size(); ++p) {
        if (p == self_ || self_ > p) continue;
        Conn& c = conns_[p];
        if (c.fd < 0 && env_.now() >= c.retry_at) try_dial(p);
      }
    }
    if (!unidentified_.empty()) expire_unidentified();
    epoll_event events[32];
    int n = epoll_wait(epoll_fd_, events, 32, 50);
    for (int i = 0; i < n; ++i) {
      uint32_t tag = events[i].data.u32;
      if (tag == kListenTag) {
        handle_accept();
      } else if (tag == kWakeTag) {
        handle_wake();
      } else if (tag & kUnidentifiedTag) {
        handle_hello(static_cast<int>(tag & ~kUnidentifiedTag));
      } else {
        NodeId peer = tag;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          std::lock_guard<std::mutex> lock(mutex_);
          close_conn(peer, "hup/err");
          continue;
        }
        if (events[i].events & EPOLLOUT) handle_writable(peer);
        if (events[i].events & EPOLLIN) handle_readable(peer);
      }
    }
  }
}

}  // namespace stab
