// Allocation guard for the control-plane apply path and the data path.
//
// This binary replaces the global operator new with a counting one and pins
// a structural property of the hot paths: once warmed up, applying a
// stability-report batch — FrontierEngine::on_ack_batch directly, and a
// Stabilizer's ACKBATCH, DATA and DATABATCH receive path — performs zero
// heap allocations per frame. Monitors fire and waiters wake inside the
// counted region; parking a waiter (which stores its callback) stays outside
// it. Frame decoding is outside the claim for ACKBATCH: it decodes into an
// owning vector, so that case asserts the apply adds nothing on top of
// decode_ack_batch itself. On the data path, a warm send buffer
// push/reclaim cycle and a warm TCP frame round trip allocate nothing
// either.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "config/topology.hpp"
#include "control/frontier_engine.hpp"
#include "core/stabilizer.hpp"
#include "data/out_buffer.hpp"
#include "net/tcp_transport.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// GCC pairs the inlined malloc/free across these replacements and reports a
// new/free mismatch that cannot happen: every allocation comes from here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace stab {
namespace {

/// Heap allocations made while running `fn`.
template <class Fn>
uint64_t count_allocs(Fn&& fn) {
  g_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocs.load();
}

// The Table III shapes plus the single-gather ones, over plain and custom
// stability types.
const char* kPredicates[] = {
    "MAX($ALLWNODES-$MYWNODE)",
    "MIN($ALLWNODES-$MYWNODE)",
    "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
    "KTH_MIN(2,($ALLWNODES-$MYWNODE))",
    "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
    "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
    "MIN(($ALLWNODES-$MYWNODE).persisted)",
    "MAX($ALLWNODES.verified)",
};

TEST(AllocGuard, EngineBatchApplyIsAllocationFree) {
  Topology topo = ec2_topology();
  StabilityTypeRegistry types;
  FrontierEngine engine(topo, 0, types);
  uint64_t fired = 0, woken = 0;
  std::vector<std::string> keys;
  for (size_t i = 0; i < std::size(kPredicates); ++i) {
    keys.push_back("p" + std::to_string(i));
    ASSERT_TRUE(engine.register_predicate(keys.back(), kPredicates[i]));
    ASSERT_TRUE(
        engine.monitor(keys.back(), [&](SeqNum, BytesView) { ++fired; }));
  }
  const StabilityTypeId verified = *types.find("verified");
  const Bytes extra = to_bytes("extra");

  Rng rng(7);
  std::vector<int64_t> cells(4 * 8, kNoSeq);
  std::vector<AckUpdate> batch;
  batch.reserve(32);
  auto next_batch = [&] {
    batch.clear();
    const size_t n = 1 + rng.next_below(24);
    for (size_t i = 0; i < n; ++i) {
      const StabilityTypeId t = i % 5 == 4 ? verified : rng.next_below(3);
      const NodeId node = static_cast<NodeId>(rng.next_below(8));
      int64_t& cell = cells[t * 8 + node];
      cell += rng.next_range(0, 3);
      batch.push_back(AckUpdate{t, node, cell,
                                i % 3 == 0 ? BytesView(extra) : BytesView()});
    }
  };
  // At most one parked waiter per key, so wake-ups per batch stay bounded
  // and the warm-up reaches the steady state.
  std::vector<bool> parked(keys.size(), false);
  auto park_waiters = [&] {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (parked[k]) continue;
      parked[k] = true;
      ASSERT_TRUE(engine.waitfor(keys[k], engine.frontier(keys[k]) + 1,
                                 [&, k](SeqNum) {
                                   parked[k] = false;
                                   ++woken;
                                 }));
    }
  };
  for (int i = 0; i < 200; ++i) {  // warm-up: scratch vectors reach size
    park_waiters();
    next_batch();
    engine.on_ack_batch(batch);
  }
  const uint64_t fired_before = fired, woken_before = woken;
  uint64_t allocs = 0;
  for (int i = 0; i < 2000; ++i) {
    park_waiters();
    next_batch();
    allocs += count_allocs([&] { engine.on_ack_batch(batch); });
  }
  EXPECT_EQ(allocs, 0u);
  // Monitors and waiters really ran while counted.
  EXPECT_GT(fired, fired_before);
  EXPECT_GT(woken, woken_before);
}

/// Loopback-free transport: records the Stabilizer's receive handler so the
/// test can hand it pre-encoded frames, and drops everything sent.
class CaptureTransport : public Transport {
 public:
  CaptureTransport(NodeId self, size_t n) : self_(self), n_(n) {}
  NodeId self() const override { return self_; }
  size_t cluster_size() const override { return n_; }
  void set_receive_handler(ReceiveHandler h) override { handler_ = std::move(h); }
  void send(NodeId, Bytes, uint64_t) override {}
  void send_shared(NodeId, std::shared_ptr<const Bytes>, uint64_t) override {}
  Env& env() override { return sim_; }
  bool single_threaded() const override { return true; }

  void deliver(NodeId src, const Bytes& frame) {
    handler_(src, BytesView(frame), frame.size());
  }

 private:
  NodeId self_;
  size_t n_;
  sim::Simulator sim_;  // never run: armed timers simply stay armed
  ReceiveHandler handler_;
};

struct StabilizerUnderTest {
  StabilizerUnderTest() : transport(1, 8) {
    StabilizerOptions opts;
    opts.topology = ec2_topology();
    opts.self = 1;
    node = std::make_unique<Stabilizer>(opts, transport);
    for (size_t i = 0; i < std::size(kPredicates); ++i) {
      const std::string key = "p" + std::to_string(i);
      EXPECT_TRUE(node->register_predicate(key, kPredicates[i]));
      EXPECT_TRUE(node->monitor_stability_frontier(
          key, [this](SeqNum, BytesView) { ++fired; }, /*origin=*/0));
    }
  }
  CaptureTransport transport;
  std::unique_ptr<Stabilizer> node;
  uint64_t fired = 0;
};

TEST(AllocGuard, StabilizerDataApplyIsAllocationFree) {
  StabilizerUnderTest s;
  const Bytes payload(64, 'x');
  std::vector<Bytes> frames;
  for (SeqNum seq = 0; seq < 1200; ++seq)
    frames.push_back(
        data::encode_data(/*origin=*/0, seq, BytesView(payload), 0));
  for (size_t i = 0; i < 200; ++i) s.transport.deliver(0, frames[i]);
  const uint64_t fired_before = s.fired;
  uint64_t allocs = 0;
  for (size_t i = 200; i < frames.size(); ++i)
    allocs += count_allocs([&] { s.transport.deliver(0, frames[i]); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(s.node->delivered_through(0), 1199);
  EXPECT_GT(s.fired, fired_before);
}

TEST(AllocGuard, StabilizerDataBatchApplyIsAllocationFree) {
  StabilizerUnderTest s;
  const Bytes payload(64, 'x');
  std::vector<Bytes> frames;
  for (SeqNum first = 0; first < 16 * 600; first += 16) {
    data::DataBatchFrame batch;
    batch.origin = 0;
    batch.first_seq = first;
    for (int i = 0; i < 16; ++i)
      batch.entries.push_back(
          data::DataBatchFrame::Entry{BytesView(payload), 0});
    frames.push_back(data::encode(batch));
  }
  for (size_t i = 0; i < 100; ++i) s.transport.deliver(0, frames[i]);
  const uint64_t fired_before = s.fired;
  uint64_t allocs = 0;
  for (size_t i = 100; i < frames.size(); ++i)
    allocs += count_allocs([&] { s.transport.deliver(0, frames[i]); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(s.node->delivered_through(0), 16 * 600 - 1);
  EXPECT_GT(s.fired, fired_before);
}

TEST(AllocGuard, StabilizerAckBatchApplyAddsNoAllocationToDecode) {
  StabilizerUnderTest s;
  const StabilityTypeId verified = *s.node->types().find("verified");
  Rng rng(11);
  // Per reporter, per (origin, type): the last reported sequence.
  std::vector<int64_t> reported(8 * 8 * 4, kNoSeq);
  std::vector<std::pair<NodeId, Bytes>> frames;
  for (int f = 0; f < 1200; ++f) {
    data::AckBatchFrame frame;
    frame.reporter = static_cast<NodeId>(2 + rng.next_below(6));
    for (NodeId origin : {0u, 3u, 5u}) {
      for (StabilityTypeId t : {StabilityTypeId{0}, StabilityTypeId{1},
                                StabilityTypeId{2}, verified}) {
        int64_t& r = reported[(frame.reporter * 8 + origin) * 4 +
                              (t == verified ? 3 : t)];
        r += rng.next_range(0, 2);
        frame.entries.push_back(data::AckEntry{origin, t, r, {}});
      }
    }
    frames.emplace_back(frame.reporter, data::encode(frame));
  }
  for (size_t i = 0; i < 200; ++i)
    s.transport.deliver(frames[i].first, frames[i].second);
  const uint64_t fired_before = s.fired;
  uint64_t decode = 0, apply = 0;
  for (size_t i = 200; i < frames.size(); ++i) {
    decode += count_allocs([&] {
      data::AckBatchFrame decoded =
          data::decode_ack_batch(BytesView(frames[i].second));
    });
    apply += count_allocs(
        [&] { s.transport.deliver(frames[i].first, frames[i].second); });
  }
  EXPECT_GT(decode, 0u);
  EXPECT_EQ(apply, decode);
  EXPECT_GT(s.fired, fired_before);
}

// The send buffer in a tcp_bulk-like steady state: 64 B payloads, about
// 4096 unacknowledged, reclaimed in ack-sized steps. Chunks cycle through
// the spare list and the slot ring keeps its capacity.
TEST(AllocGuard, WarmOutBufferPushReclaimIsAllocationFree) {
  data::OutBuffer b;
  const Bytes payload(64, 0xab);
  SeqNum next = 0;
  auto cycle = [&] {
    for (int i = 0; i < 512; ++i) b.push(next++, BytesView(payload), 0);
    b.reclaim_through(next - 4097);
  };
  for (int i = 0; i < 64; ++i) cycle();
  EXPECT_EQ(count_allocs([&] {
              for (int i = 0; i < 256; ++i) cycle();
            }),
            0u);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(b.get(next - 1)->payload[63], 0xab);
}

/// A loopback port the kernel reports free (bound to port 0, then closed).
uint16_t free_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  socklen_t len = sizeof sa;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  ::close(fd);
  return ntohs(sa.sin_port);
}

// A frame's whole way over loopback TCP — send_shared's queue entry, the
// IO thread's write and read, the pooled receive buffer and the handler
// call — allocates nothing once the queues and buffer pools are warm.
// Bursts are waited out so no queue grows past its warm size. With direct
// dispatch the IO thread calls the handler; through the inbox, the only
// allocation left is the Env's timer-queue entry of each drain task, and
// there is at most one drain per frame (at the parent every frame cost a
// payload copy, a heap task capture, a timer-queue node and a header).
void expect_warm_tcp_round_trip(bool direct) {
  const std::vector<TcpPeerAddr> addrs = {{"127.0.0.1", free_port()},
                                          {"127.0.0.1", free_port()}};
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  std::atomic<uint64_t> got{0};
  b.set_receive_handler(
      [&got](NodeId, BytesView, uint64_t) { got.fetch_add(1); });
  b.set_direct_dispatch(direct);
  const auto frame = std::make_shared<const Bytes>(1200, 0x5a);
  auto burst = [&](uint64_t n) {
    const uint64_t target = got.load() + n;
    for (uint64_t i = 0; i < n; ++i) a.send_shared(1, frame);
    for (int spin = 0; got.load() < target && spin < 5000000; ++spin)
      std::this_thread::yield();
  };
  for (int i = 0; i < 200; ++i) burst(16);
  const uint64_t allocs = count_allocs([&] {
    for (int i = 0; i < 200; ++i) burst(16);
  });
  EXPECT_EQ(got.load(), 400u * 16);
  if (direct)
    EXPECT_EQ(allocs, 0u);
  else
    EXPECT_LE(allocs, 200u * 16);
}

TEST(AllocGuard, WarmTcpFrameRoundTripIsAllocationFree) {
  expect_warm_tcp_round_trip(/*direct=*/true);
}

TEST(AllocGuard, WarmTcpInboxRoundTripAllocatesOnlyDrainTasks) {
  expect_warm_tcp_round_trip(/*direct=*/false);
}

}  // namespace
}  // namespace stab
