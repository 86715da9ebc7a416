// Real-socket transport: length-prefixed frames over TCP with automatic
// connect/reconnect. One epoll IO thread owns all sockets; received frames
// are handed to the node's RealtimeEnv thread so application callbacks keep
// the single-threaded Stabilizer discipline.
//
// Received frames reach the Env thread through a transport-owned inbox: the
// IO thread appends, and posts one drain task only when the inbox goes from
// empty to non-empty. Drained payload buffers go back to the IO thread for
// the next frames, so a warm receive path allocates no buffer per frame.
//
// Only the IO thread writes to a socket. send()/send_shared() append to the
// peer's outq under mutex_ and write the eventfd only when that queue goes
// from empty to non-empty; the IO thread answers the wake by writing every
// non-empty queue. EPOLLOUT is registered only while a connect is in
// progress or after sendmsg returned EAGAIN (DESIGN.md, "TCP transport
// threads").
//
// Connection policy: the node with the smaller id dials; the larger id
// accepts. Every connection starts with a HELLO frame carrying the dialer's
// node id. A HELLO never displaces a connection that has received a byte:
// the new socket is closed instead. Frames queued while a peer is down are
// buffered (up to a configurable byte bound, oldest dropped first) and
// flushed on reconnect.
// Reconnect attempts back off exponentially with jitter up to a cap, so a
// long partition costs neither unbounded memory nor a SYN storm; anything
// dropped is recovered by the data plane's go-back-N retransmission.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/realtime_env.hpp"
#include "common/ring_deque.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace stab {

struct TcpPeerAddr {
  std::string host;  // numeric IP or "localhost"
  uint16_t port = 0;
};

struct TcpTransportOptions {
  /// Reconnect backoff: the retry delay starts at `reconnect_initial`,
  /// doubles per consecutive failure up to `reconnect_max`, and resets on a
  /// completed connection. Each delay gets +/- `reconnect_jitter` (as a
  /// fraction) of deterministic jitter so a cluster-wide heal doesn't
  /// produce synchronized dial storms.
  Duration reconnect_initial = millis(50);
  Duration reconnect_max = seconds(2);
  double reconnect_jitter = 0.2;
  uint64_t jitter_seed = 0x7c0ffeeULL;  // mixed with self id per transport

  /// Byte bound on each peer's pending (disconnected) frame buffer; 0 =
  /// unbounded (pre-bound behaviour). When exceeded the oldest frames are
  /// dropped first — cumulative ACK batches are superseded by newer ones
  /// anyway, and dropped DATA frames are re-sent by the retransmit probe —
  /// so a long partition cannot OOM the process.
  size_t max_pending_bytes = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Largest frame body (the bytes after the 12-byte prefix) a transport
  /// sends or accepts. Library frames stay far below it: send_large splits
  /// writes into split_size messages (8 KiB by default), a DATABATCH holds
  /// at most coalesce_max_bytes, control frames take a few KiB per peer, and
  /// a Paxos PROMISE carries one small record per failover election. Only an
  /// application value past 64 MiB (a Stabilizer::send payload, a quorum or
  /// Paxos value) reaches it. send()/send_shared() throw
  /// std::invalid_argument past it, and a receiver closes the connection as
  /// soon as a prefix declares more, so one peer cannot make it buffer up to
  /// 4 GiB.
  static constexpr size_t kMaxFrameBody = size_t{64} << 20;

  /// `peers[i]` is node i's listen address; `peers[self]` is where this
  /// transport listens. Starts the IO thread immediately.
  TcpTransport(NodeId self, std::vector<TcpPeerAddr> peers,
               TcpTransportOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  NodeId self() const override { return self_; }
  size_t cluster_size() const override { return peers_.size(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) override;
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size = 0) override;
  Env& env() override { return env_; }
  // Invoke the receive handler on the epoll IO thread (after transport
  // mutex release) instead of bouncing each frame through the RealtimeEnv.
  // Requires a lock-free re-entrant handler — the pipelined ingest path.
  void set_direct_dispatch(bool on) override {
    direct_dispatch_.store(on, std::memory_order_release);
  }

  /// Blocks until a live connection exists to every other node, or the
  /// timeout expires. Returns true when fully connected.
  bool wait_connected(Duration timeout);

  /// Closes sockets and joins the IO thread. Idempotent.
  void shutdown();

  /// Test hook: number of currently connected peers.
  size_t connected_peers() const;
  /// Test hooks: pending-buffer accounting and reconnect backoff state.
  uint64_t pending_dropped_frames() const;
  size_t pending_bytes(NodeId peer) const;
  Duration current_backoff(NodeId peer) const;

 private:
  /// One queued wire frame: the 12-byte prefix inline, then a body that is
  /// either the caller's bytes moved in (plain send) or a reference on the
  /// caller's encoded frame (send_shared, so an N-peer broadcast queues N
  /// prefixes plus one shared buffer). HELLO has no body. The two parts are
  /// written with one writev (scatter-gather).
  struct OutFrame {
    uint8_t prefix[12] = {};  // u32 body_len | u32 kind | u32 src
    Bytes owned;
    std::shared_ptr<const Bytes> shared;  // when set, the body
    BytesView body() const { return shared ? BytesView(*shared) : owned; }
    size_t size() const { return sizeof prefix + body().size(); }
  };

  /// A received frame on its way to the Env thread.
  struct InFrame {
    NodeId src = kInvalidNode;
    Bytes payload;
  };

  struct Conn {
    int fd = -1;
    bool connecting = false;   // non-blocking connect in progress
    bool hello_sent = false;
    bool received = false;     // a byte was read (handle_readable)
    uint32_t events = 0;       // epoll mask registered for fd
    Bytes inbuf;
    RingDeque<OutFrame> outq;
    size_t out_offset = 0;     // bytes of outq.front() already written
    TimePoint retry_at = kTimeZero;
  };

  /// An accepted socket whose 12-byte HELLO has not fully arrived yet.
  /// Owned by the IO thread; closed once `deadline` passes.
  struct Unidentified {
    int fd = -1;
    TimePoint deadline;
    uint8_t hello[12] = {};
    size_t got = 0;
  };

  void io_loop();
  void start_listen();
  void try_dial(NodeId peer);
  void close_conn(NodeId peer, const char* why);
  void handle_readable(NodeId peer);
  void handle_writable(NodeId peer);
  void handle_wake();
  void handle_accept();
  void handle_hello(int fd);
  void expire_unidentified();
  void write_locked(NodeId peer);
  void flush_pending_locked(NodeId peer);
  void enqueue_or_pend(NodeId dst, OutFrame frame);
  void enforce_pending_bound_locked(NodeId peer);
  Duration next_retry_delay_locked(NodeId peer);
  void rearm_epoll(NodeId peer);
  Bytes take_buffer();
  void drain_inbox();
  static OutFrame make_frame(uint32_t kind, NodeId src, size_t body_size);

  const NodeId self_;
  const std::vector<TcpPeerAddr> peers_;
  const TcpTransportOptions opts_;
  RealtimeEnv env_;

  mutable std::mutex mutex_;
  std::vector<Conn> conns_;          // indexed by peer id
  std::vector<std::deque<OutFrame>> pending_;  // queued while disconnected
  std::vector<size_t> pending_bytes_;       // bytes in pending_[peer]
  std::vector<Duration> backoff_;           // current reconnect delay per peer
  Rng jitter_rng_;                          // guarded by mutex_
  uint64_t pending_dropped_ = 0;
  ReceiveHandler handler_;
  std::atomic<bool> direct_dispatch_{false};

  // Receive inbox (DESIGN.md §4g). inbox_ and returned_ are guarded by
  // inbox_mutex_ (taken alone, or inside mutex_); draining_ belongs to the
  // Env thread, ready_ and spare_ to the IO thread.
  std::mutex inbox_mutex_;
  std::vector<InFrame> inbox_;     // IO thread -> Env thread
  std::vector<Bytes> returned_;    // drained buffers, Env thread -> IO thread
  std::vector<InFrame> draining_;  // the inbox being drained
  std::vector<InFrame> ready_;     // frames parsed by one handle_readable
  std::vector<Bytes> spare_;       // buffers for the next frames

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd to kick the IO thread
  std::vector<Unidentified> unidentified_;  // IO thread only
  std::atomic<bool> stop_{false};
  std::thread io_thread_;

#if STAB_OBS_ENABLED
  // Process-wide transport metrics (obs::global(); see
  // docs/OBSERVABILITY.md), resolved once at construction. The counters are
  // bumped from the IO thread and from senders' threads — relaxed atomics,
  // no extra locking. obs_was_connected_ (guarded by mutex_) distinguishes
  // a peer's first connect from a reconnect episode.
  obs::Counter* obs_dial_attempts_ = nullptr;
  obs::Counter* obs_connects_ = nullptr;
  obs::Counter* obs_reconnects_ = nullptr;
  obs::Counter* obs_disconnects_ = nullptr;
  obs::Counter* obs_pending_dropped_ = nullptr;
  obs::Counter* obs_send_blocked_ = nullptr;
  obs::Gauge* obs_pending_bytes_ = nullptr;  // summed over peers (delta-kept)
  std::vector<bool> obs_was_connected_;
  void obs_on_connected_locked(NodeId peer);
#endif
};

/// Convenience: build an n-node loopback cluster on consecutive ports
/// starting at `base_port`. Used by tests and the TCP example.
std::vector<TcpPeerAddr> loopback_addrs(size_t n, uint16_t base_port);

}  // namespace stab
