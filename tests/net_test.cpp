// Tests for the transports: sim (with topology pipes), in-process threads,
// and real TCP sockets on loopback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "config/topology.hpp"
#include "core/stabilizer.hpp"
#include "data/wire.hpp"
#include "net/inproc_transport.hpp"
#include "net/metrics_endpoint.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace stab {
namespace {

// --- SimCluster -------------------------------------------------------------

TEST(SimCluster, WiresTopologyLatency) {
  sim::Simulator sim;
  SimCluster cluster(cloudlab_topology(), sim);
  auto& t0 = cluster.transport(cloudlab::kUtah1);
  auto& t2 = cluster.transport(cloudlab::kWisconsin);

  TimePoint got = kTimeZero;
  t2.set_receive_handler(
      [&](NodeId src, BytesView, uint64_t) {
        EXPECT_EQ(src, cloudlab::kUtah1);
        got = sim.now();
      });
  t0.send(cloudlab::kWisconsin, to_bytes("ping"));
  sim.run();
  EXPECT_NEAR(to_ms(got), 35.612 / 2, 0.01);
}

TEST(SimCluster, PipeGroupsShareBandwidth) {
  Topology topo;
  NodeId a = topo.add_node("a", "az1");
  NodeId b = topo.add_node("b", "az2");
  NodeId c = topo.add_node("c", "az2");
  LinkSpec s;
  s.bandwidth_bps = 8e6;
  s.pipe_group = "to_az2";
  topo.set_link(a, b, s);
  topo.set_link(a, c, s);

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  TimePoint at_b = kTimeZero, at_c = kTimeZero;
  cluster.transport(b).set_receive_handler(
      [&](NodeId, BytesView, uint64_t) { at_b = sim.now(); });
  cluster.transport(c).set_receive_handler(
      [&](NodeId, BytesView, uint64_t) { at_c = sim.now(); });

  cluster.transport(a).send(b, Bytes(), 1'000'000);
  cluster.transport(a).send(c, Bytes(), 1'000'000);
  sim.run();
  EXPECT_EQ(at_b, seconds(1));
  EXPECT_EQ(at_c, seconds(2));  // shared pipe serialized the transfers
}

TEST(SimCluster, SelfDescribes) {
  sim::Simulator sim;
  SimCluster cluster(ec2_topology(), sim);
  EXPECT_EQ(cluster.transport(0).self(), 0u);
  EXPECT_EQ(cluster.transport(0).cluster_size(), 8u);
  EXPECT_EQ(&cluster.transport(3).env(), &sim);
}

// --- InProcCluster ----------------------------------------------------------

TEST(InProc, DeliversBetweenThreads) {
  InProcCluster cluster(3);
  std::atomic<int> got{0};
  cluster.transport(1).set_receive_handler(
      [&](NodeId src, BytesView frame, uint64_t) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(to_string(frame), "hello");
        ++got;
      });
  cluster.transport(0).send(1, to_bytes("hello"));
  for (int i = 0; i < 500 && got == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(got.load(), 1);
}

TEST(InProc, FifoPerPeer) {
  InProcCluster cluster(2);
  std::mutex m;
  std::vector<uint32_t> got;
  cluster.transport(1).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        Reader r(frame);
        std::lock_guard<std::mutex> l(m);
        got.push_back(r.u32());
      });
  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(static_cast<uint32_t>(i));
    cluster.transport(0).send(1, std::move(w).take());
  }
  for (int i = 0; i < 2000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == kCount) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[i], static_cast<uint32_t>(i));
}

TEST(InProc, AppliesTopologyLatency) {
  Topology topo;
  topo.add_node("a", "x");
  topo.add_node("b", "y");
  LinkSpec s;
  s.latency = millis(50);
  topo.set_link(0, 1, s);
  InProcCluster cluster(2, &topo);
  std::atomic<bool> got{false};
  auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> elapsed_ms{0};
  cluster.transport(1).set_receive_handler([&](NodeId, BytesView, uint64_t) {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    got = true;
  });
  cluster.transport(0).send(1, to_bytes("x"));
  for (int i = 0; i < 1000 && !got; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(got.load());
  EXPECT_GE(elapsed_ms.load(), 45);
}

// --- shared-frame fan-out ---------------------------------------------------

TEST(SimCluster, SharedFanOutDeliversWithoutCopy) {
  Topology topo;
  NodeId a = topo.add_node("a", "az1");
  NodeId b = topo.add_node("b", "az2");
  NodeId c = topo.add_node("c", "az3");
  topo.set_link(a, b, LinkSpec{});
  topo.set_link(a, c, LinkSpec{});

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  const uint8_t* seen_b = nullptr;
  const uint8_t* seen_c = nullptr;
  cluster.transport(b).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) { seen_b = frame.data(); });
  cluster.transport(c).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) { seen_c = frame.data(); });

  auto frame = std::make_shared<const Bytes>(to_bytes("refcounted fan-out"));
  cluster.transport(a).send_shared(b, frame);
  cluster.transport(a).send_shared(c, frame);
  sim.run();

  // Every receiver observed the single shared buffer, byte-for-byte in place.
  EXPECT_EQ(seen_b, frame->data());
  EXPECT_EQ(seen_c, frame->data());
}

TEST(InProc, SharedFanOutDeliversSameBuffer) {
  InProcCluster cluster(3);
  std::atomic<const uint8_t*> seen1{nullptr};
  std::atomic<const uint8_t*> seen2{nullptr};
  cluster.transport(1).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        EXPECT_EQ(to_string(frame), "one buffer, two threads");
        seen1 = frame.data();
      });
  cluster.transport(2).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        EXPECT_EQ(to_string(frame), "one buffer, two threads");
        seen2 = frame.data();
      });

  auto frame =
      std::make_shared<const Bytes>(to_bytes("one buffer, two threads"));
  cluster.transport(0).send_shared(1, frame);
  cluster.transport(0).send_shared(2, frame);
  for (int i = 0; i < 2000 && (!seen1.load() || !seen2.load()); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_NE(seen1.load(), nullptr);
  ASSERT_NE(seen2.load(), nullptr);
  EXPECT_EQ(seen1.load(), frame->data());
  EXPECT_EQ(seen2.load(), frame->data());
}

// --- TcpTransport -----------------------------------------------------------

uint16_t pick_base_port() {
  // Different per-process-ish base to dodge TIME_WAIT collisions between
  // test invocations.
  return static_cast<uint16_t>(20000 + (::getpid() % 500) * 64);
}

TEST(Tcp, ConnectsAndDelivers) {
  auto addrs = loopback_addrs(2, pick_base_port());
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));

  std::atomic<int> got{0};
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(to_string(frame), "over tcp");
    ++got;
  });
  a.send(1, to_bytes("over tcp"));
  for (int i = 0; i < 2000 && got == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(got.load(), 1);
}

TEST(Tcp, BidirectionalAndFifo) {
  auto addrs = loopback_addrs(3, static_cast<uint16_t>(pick_base_port() + 8));
  TcpTransport a(0, addrs), b(1, addrs), c(2, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  ASSERT_TRUE(c.wait_connected(seconds(5)));

  std::mutex m;
  std::vector<uint32_t> at_c;
  c.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    Reader r(frame);
    uint32_t v = r.u32();
    std::lock_guard<std::mutex> l(m);
    if (src == 0) at_c.push_back(v);
  });
  std::atomic<int> at_a{0};
  a.set_receive_handler([&](NodeId src, BytesView, uint64_t) {
    if (src == 2) ++at_a;
  });

  const int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(static_cast<uint32_t>(i));
    a.send(2, std::move(w).take());
  }
  c.send(0, to_bytes("reply"));

  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (at_c.size() == kCount && at_a > 0) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(at_c.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(at_c[i], static_cast<uint32_t>(i));
  EXPECT_GE(at_a.load(), 1);
}

TEST(Tcp, BuffersWhilePeerDown) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 16));
  TcpTransport a(0, addrs);
  // Peer 1 is not up yet; frames must be buffered, not lost.
  a.send(1, to_bytes("early-1"));
  a.send(1, to_bytes("early-2"));

  TcpTransport b(1, addrs);
  std::mutex m;
  std::vector<std::string> got;
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    std::lock_guard<std::mutex> l(m);
    got.push_back(to_string(frame));
  });
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "early-1");
  EXPECT_EQ(got[1], "early-2");
}

TEST(Tcp, ReconnectBackoffGrowsCapsAndResetsOnConnect) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 32));
  TcpTransportOptions opts;
  opts.reconnect_initial = millis(5);
  opts.reconnect_max = millis(40);
  opts.reconnect_jitter = 0.2;
  TcpTransport a(0, addrs, opts);  // peer 1 absent: every dial fails

  Duration max_seen = Duration::zero();
  for (int i = 0; i < 600; ++i) {
    max_seen = std::max(max_seen, a.current_backoff(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Grew beyond the initial delay and capped at reconnect_max (+ jitter).
  EXPECT_GT(max_seen, millis(5));
  EXPECT_LE(max_seen, millis(48));

  TcpTransport b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  for (int i = 0; i < 1000 && a.current_backoff(1) != Duration::zero(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(a.current_backoff(1), Duration::zero());  // reset for next outage
}

TEST(Tcp, PendingBufferBoundDropsOldestFirst) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 40));
  TcpTransportOptions opts;
  opts.max_pending_bytes = 4096;
  TcpTransport a(0, addrs, opts);

  const uint32_t kCount = 100;
  for (uint32_t i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(i);
    w.blob(Bytes(100));  // ~100+ bytes per frame: far beyond the bound
    a.send(1, std::move(w).take());
  }
  EXPECT_LE(a.pending_bytes(1), opts.max_pending_bytes);
  EXPECT_GT(a.pending_dropped_frames(), 0u);

  TcpTransport b(1, addrs);
  std::mutex m;
  std::vector<uint32_t> got;
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    Reader r(frame);
    std::lock_guard<std::mutex> l(m);
    got.push_back(r.u32());
  });
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (!got.empty() && got.back() == kCount - 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  // Oldest frames were dropped; what survived is the newest contiguous
  // tail, delivered in order and ending with the last send.
  ASSERT_FALSE(got.empty());
  EXPECT_LT(got.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(got.back(), kCount - 1);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_EQ(got[i], got[i - 1] + 1);
}

TEST(Tcp, LargeFrame) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 24));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  Bytes big(512 * 1024);
  for (size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<uint8_t>(i * 31 + 7);
  std::atomic<bool> ok{false};
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    ok = std::equal(frame.begin(), frame.end(), big.begin(), big.end());
  });
  a.send(1, big);
  for (int i = 0; i < 5000 && !ok; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ok.load());
}

TEST(Tcp, SendSharedScatterGathersPrefixAndBody) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 48));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  // Mix shared and copied sends so the writev path interleaves two-iovec
  // (header + refcounted body) frames with plain single-buffer frames, and
  // verify FIFO survives partial-write bookkeeping.
  std::mutex m;
  std::vector<std::string> got;
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    EXPECT_EQ(src, 0u);
    std::lock_guard<std::mutex> l(m);
    got.push_back(to_string(frame));
  });

  auto shared = std::make_shared<const Bytes>(to_bytes("shared body"));
  a.send_shared(1, shared);
  a.send(1, to_bytes("copied"));
  a.send_shared(1, shared);

  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "shared body");
  EXPECT_EQ(got[1], "copied");
  EXPECT_EQ(got[2], "shared body");
}

// A raw client socket, connected (blocking) to a transport's listen port.
int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};  // bounds every blocking recv below
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

// Blocks until the transport closes `fd` (recv sees EOF); false on timeout.
bool wait_eof(int fd) {
  uint8_t byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

// A client that introduces itself with a valid HELLO as node 0, which has no
// live connection (node 0 is not running), then sends a DATA prefix
// declaring `body_len`, must not take node 1 down: node 1 closes the raw
// socket promptly — the prefix is shorter than its header, or declares a
// body past kMaxFrameBody — and node 2's later frames still arrive.
void expect_survives_hostile_prefix(uint16_t base_port, uint32_t body_len) {
  auto addrs = loopback_addrs(3, base_port);
  TcpTransport b(1, addrs), c(2, addrs);
  for (int i = 0; i < 5000 && b.connected_peers() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(b.connected_peers(), 1u);
  std::atomic<int> got{0};
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    if (src == 2 && to_string(frame) == "after") ++got;
  });

  int fd = raw_connect(addrs[1].port);
  ASSERT_GE(fd, 0);
  Writer w;
  for (uint32_t v : {8u, 1u, 0u}) w.u32(v);             // HELLO from node 0
  for (uint32_t v : {body_len, 2u, 0u, 0u}) w.u32(v);   // hostile DATA prefix
  Bytes wire = std::move(w).take();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_TRUE(wait_eof(fd));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  ::close(fd);

  for (int i = 0; i < 500 && got == 0; ++i) {
    c.send(1, to_bytes("after"));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(got.load(), 0);
}

TEST(Tcp, FramePrefixShorterThanHeaderClosesOnlyThatConnection) {
  expect_survives_hostile_prefix(static_cast<uint16_t>(pick_base_port() + 11),
                                 4);
}

// A prefix declaring a body past the bound (here near 4 GiB, which must not
// wrap either) is refused at once instead of buffered.
TEST(Tcp, FramePrefixNear4GiBDoesNotWrap) {
  expect_survives_hostile_prefix(static_cast<uint16_t>(pick_base_port() + 18),
                                 0xFFFFFFFCu);
}

TEST(Tcp, FramePrefixJustPastBodyBoundIsRefused) {
  expect_survives_hostile_prefix(
      static_cast<uint16_t>(pick_base_port() + 26),
      static_cast<uint32_t>(TcpTransport::kMaxFrameBody + 8 + 1));
}

TEST(Tcp, SendRefusesBodyPastBound) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 4));
  TcpTransport a(0, addrs);
  const size_t too_big = TcpTransport::kMaxFrameBody + 1;
  EXPECT_THROW(a.send(1, Bytes(too_big)), std::invalid_argument);
  EXPECT_THROW(a.send_shared(1, std::make_shared<const Bytes>(too_big)),
               std::invalid_argument);
  EXPECT_EQ(a.pending_bytes(1), 0u);
}

// Nothing authenticates a HELLO, so one that claims a live peer must not
// displace that peer's connection: the impostor's socket is closed, and the
// real node 0 keeps its session with no disconnect on either side.
TEST(Tcp, HelloClaimingLivePeerIsClosed) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 34));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  std::atomic<int> before{0}, after{0};
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    if (src != 0) return;
    if (to_string(frame) == "before") ++before;
    if (to_string(frame) == "after") ++after;
  });
  a.send(1, to_bytes("before"));
  for (int i = 0; i < 2000 && before == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(before.load(), 1);
#if STAB_OBS_ENABLED
  obs::Counter& disconnects = obs::global().counter("net.tcp.disconnects");
  const uint64_t disconnects_before = disconnects.value();
#endif

  int fd = raw_connect(addrs[1].port);
  ASSERT_GE(fd, 0);
  Writer w;
  for (uint32_t v : {8u, 1u, 0u}) w.u32(v);  // HELLO claiming node 0
  Bytes wire = std::move(w).take();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_TRUE(wait_eof(fd));
  ::close(fd);

  a.send(1, to_bytes("after"));
  for (int i = 0; i < 2000 && after == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(after.load(), 1);
  EXPECT_EQ(a.connected_peers(), 1u);
  EXPECT_EQ(b.connected_peers(), 1u);
#if STAB_OBS_ENABLED
  EXPECT_EQ(disconnects.value(), disconnects_before);
#endif
}

// A connected peer whose frame bodies do not decode must not take the
// receiving Stabilizer's process down: each such frame is dropped and
// counted in data.malformed_frames, and later valid frames still deliver.
// Under kLegacyLocked every body is decoded on the Env thread; under
// kPipelined an ACKBATCH body is decoded on the transport's IO thread.
void expect_drops_malformed_bodies(uint16_t base_port,
                                   StabilizerOptions::PipelineMode mode) {
  Topology topo;
  topo.add_node("a", "east");
  topo.add_node("b", "east");
  topo.set_link(0, 1, LinkSpec{});
  topo.set_link(1, 0, LinkSpec{});
  auto addrs = loopback_addrs(2, base_port);
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 1;
  opts.pipeline_mode = mode;
  Stabilizer node(opts, b);
  std::atomic<int> delivered{0};
  node.set_delivery_handler(
      [&](NodeId, SeqNum, BytesView payload, uint64_t) {
        if (to_string(payload) == "after") ++delivered;
      });

  const std::vector<Bytes> hostile = {
      {0x04, 0x00, 0x00},              // DATABATCH cut inside its header
      {0x02, 0x00},                    // ACKBATCH cut inside its header
      {0x01},                          // DATA with no header
      {0x05, 0x01, 0x00, 0x00, 0x00},  // REPORTBATCH with no block count
      {0x03, 0x00},                    // RESUME cut short
  };
  for (const Bytes& f : hostile) a.send(1, f);
  a.send(1, data::encode_data(0, 0, to_bytes("after"), 0));
  for (int i = 0; i < 2000 && delivered == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(delivered.load(), 1);
#if STAB_OBS_ENABLED
  EXPECT_EQ(node.metrics().counter("data.malformed_frames").value(),
            hostile.size());
#endif
}

TEST(Tcp, MalformedFrameBodyIsDroppedAndCounted) {
  expect_drops_malformed_bodies(
      static_cast<uint16_t>(pick_base_port() + 60),
      StabilizerOptions::PipelineMode::kLegacyLocked);
}

TEST(Tcp, MalformedFrameBodyIsDroppedAndCountedPipelined) {
  expect_drops_malformed_bodies(
      static_cast<uint16_t>(pick_base_port() + 62),
      StabilizerOptions::PipelineMode::kPipelined);
}

TEST(Tcp, SilentConnectionDoesNotStallTraffic) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 54));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  std::atomic<bool> got{false};
  b.set_receive_handler([&](NodeId, BytesView, uint64_t) { got = true; });

  int fd = raw_connect(addrs[1].port);  // connects and never says HELLO
  ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // accepted
  const auto t0 = std::chrono::steady_clock::now();
  a.send(1, to_bytes("ping"));
  while (!got && std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(got.load());
  EXPECT_LT(took, std::chrono::milliseconds(50));
  // Node 1 gives up on the silent socket once the HELLO timeout passes.
  EXPECT_TRUE(wait_eof(fd));
  ::close(fd);
}

// Wake-on-transition: senders write the eventfd only when a queue goes
// empty -> non-empty. A lost wake-up would leave a queue stuck for good, so
// the deadline below catches one. Three threads plus node 0's Env thread
// race on one peer's queue through both send paths.
TEST(Tcp, ConcurrentSendersLoseNoWakeup) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 56));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));

  constexpr uint32_t kSenders = 4;
  constexpr uint32_t kPerSender = 20000;
  std::vector<uint32_t> next(kSenders, 0);  // touched by b's Env thread only
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> out_of_order{0};
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    Reader r(frame);
    uint32_t sender = r.u32();
    uint32_t seq = r.u32();
    if (sender >= kSenders || seq != next[sender]++) ++out_of_order;
    ++received;
  });

  auto run = [&](uint32_t sender) {
    for (uint32_t i = 0; i < kPerSender; ++i) {
      Writer w(8);
      w.u32(sender);
      w.u32(i);
      if (i % 2 == 0)
        a.send(1, std::move(w).take());
      else
        a.send_shared(1, std::make_shared<const Bytes>(std::move(w).take()));
    }
  };
  std::atomic<bool> env_done{false};
  a.env().schedule_after(Duration::zero(), [&] {
    run(kSenders - 1);
    env_done = true;
  });
  std::vector<std::thread> threads;
  for (uint32_t s = 0; s + 1 < kSenders; ++s) threads.emplace_back(run, s);
  for (auto& t : threads) t.join();

  const uint64_t total = uint64_t{kSenders} * kPerSender;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((!env_done || received < total) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(env_done.load());
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(out_of_order.load(), 0u);
}

// The receiver's IO thread blocks in a direct-dispatch handler, so the
// sender's socket fills and sendmsg returns EAGAIN: the queue must then be
// drained by EPOLLOUT, in order, and the plain wake path must work again
// afterwards.
TEST(Tcp, BackpressureDrainsInOrderAndRecovers) {
  auto addrs = loopback_addrs(2, static_cast<uint16_t>(pick_base_port() + 58));
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));

  constexpr size_t kFrameBytes = 64 * 1024;
  constexpr uint32_t kFrames = 256;  // 16 MiB behind the blocked reader
  std::atomic<bool> release{false};
  std::atomic<bool> blocked{false};
  std::mutex m;
  std::vector<uint32_t> got;
  uint64_t bad_frames = 0;  // guarded by m
  b.set_direct_dispatch(true);
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    blocked = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Reader r(frame);
    uint32_t seq = r.u32();
    std::lock_guard<std::mutex> l(m);
    if (seq >= 1 && seq <= kFrames &&
        (frame.size() != kFrameBytes ||
         frame.back() != static_cast<uint8_t>(seq)))
      ++bad_frames;
    got.push_back(seq);
  });
  // Declared after the transports, so it releases the handler before they
  // shut down even when an assertion returns early.
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag = true; }
  } guard{release};

  auto frame_for = [](uint32_t seq, size_t size) {
    Writer w(size);
    w.u32(seq);
    Bytes bytes = std::move(w).take();
    bytes.resize(size, static_cast<uint8_t>(seq));
    return bytes;
  };
  a.send(1, frame_for(0, 4));
  for (int i = 0; i < 5000 && !blocked; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(blocked.load());

#if STAB_OBS_ENABLED
  obs::Counter& send_blocked = obs::global().counter("net.tcp.send_blocked");
  const uint64_t blocked_before = send_blocked.value();
#endif
  for (uint32_t seq = 1; seq <= kFrames; ++seq)
    a.send_shared(1, std::make_shared<const Bytes>(frame_for(seq, kFrameBytes)));
#if STAB_OBS_ENABLED
  for (int i = 0; i < 5000 && send_blocked.value() == blocked_before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(send_blocked.value(), blocked_before);  // EAGAIN armed EPOLLOUT
#endif
  release = true;

  auto wait_for = [&](size_t n) {
    for (int i = 0; i < 30000; ++i) {
      {
        std::lock_guard<std::mutex> l(m);
        if (got.size() >= n) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for(kFrames + 1);
  {
    std::lock_guard<std::mutex> l(m);
    ASSERT_EQ(got.size(), size_t{kFrames} + 1);
    for (uint32_t i = 0; i <= kFrames; ++i) ASSERT_EQ(got[i], i);
    EXPECT_EQ(bad_frames, 0u);
  }

  a.send(1, frame_for(kFrames + 1, 4));
  wait_for(kFrames + 2);
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), size_t{kFrames} + 2);
  EXPECT_EQ(got.back(), kFrames + 1);
}

#if STAB_OBS_ENABLED

// --- MetricsEndpoint --------------------------------------------------------

// Minimal scrape client mirroring tools/stab_metrics_scrape: connect, send
// one GET, return the response body (empty on any failure).
std::string http_get(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) resp.append(buf, n);
  ::close(fd);
  size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos)
    return {};
  return resp.substr(body + 4);
}

TEST(MetricsEndpoint, ServesPrometheusAndJsonlWithMonotoneCounters) {
  obs::MetricsRegistry reg;
  reg.counter("core.messages_sent").inc(3);
  reg.gauge("pipeline.depth").set(-2);
  reg.histogram("data.frame_bytes").record(100);

  obs::LatencyProbeOptions popt;
  popt.sample_every = 1;
  obs::LatencyProbe probe(popt);
  probe.on_send(0, 0, TimePoint{millis(1)});
  probe.on_deliver(1, 0, 0, TimePoint{millis(2)});
  TimePoint scrape_clock = TimePoint{seconds(10)};

  MetricsEndpoint ep;
  ep.add_registry("node0.", &reg);
  ep.add_probe("", &probe, [&] { return scrape_clock; });
  int pre_scrapes = 0;
  ep.set_pre_scrape([&] { ++pre_scrapes; });
  ASSERT_TRUE(ep.start().is_ok());
  ASSERT_NE(ep.port(), 0);

  std::string prom = http_get(ep.port(), "/metrics");
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(pre_scrapes, 1);
  // Names sanitized '.' -> '_', "stab_" prefixed; types declared.
  EXPECT_NE(prom.find("# TYPE stab_node0_core_messages_sent counter\n"
                      "stab_node0_core_messages_sent 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("stab_node0_pipeline_depth -2"), std::string::npos);
  EXPECT_NE(prom.find("stab_node0_data_frame_bytes{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("stab_node0_data_frame_bytes_count 1"),
            std::string::npos);
  // Probe histograms and their windowed views (epoch aged in by the scrape
  // clock the endpoint was handed).
  EXPECT_NE(prom.find("stab_probe_send_to_deliver_count 1"),
            std::string::npos);
  EXPECT_NE(prom.find("stab_probe_send_to_deliver_window{quantile=\"0.5\"}"),
            std::string::npos);

  // Counters must be monotone across scrapes.
  reg.counter("core.messages_sent").inc(2);
  std::string prom2 = http_get(ep.port(), "/metrics");
  EXPECT_NE(prom2.find("stab_node0_core_messages_sent 5"),
            std::string::npos);
  EXPECT_EQ(pre_scrapes, 2);

  std::string jsonl = http_get(ep.port(), "/jsonl");
  EXPECT_NE(jsonl.find("{\"name\":\"node0.core.messages_sent\","
                       "\"type\":\"counter\",\"value\":5}"),
            std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"type\":\"windowed_histogram\""),
            std::string::npos);

  // Unknown paths 404 (http_get returns empty on non-200).
  EXPECT_TRUE(http_get(ep.port(), "/nope").empty());
  ep.stop();
  // Stopped endpoint refuses connections.
  EXPECT_TRUE(http_get(ep.port(), "/metrics").empty());
}

TEST(MetricsEndpoint, RendersDeterministicallyWithoutServing) {
  obs::MetricsRegistry reg;
  reg.counter("a.b-c d").inc(1);  // hostile name: sanitized in prometheus
  MetricsEndpoint ep;
  ep.add_registry("", &reg);
  std::string p1 = ep.render_prometheus();
  std::string p2 = ep.render_prometheus();
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1.find("stab_a_b_c_d 1"), std::string::npos) << p1;
  EXPECT_EQ(ep.render_jsonl(), ep.render_jsonl());
}

#endif  // STAB_OBS_ENABLED

}  // namespace
}  // namespace stab
