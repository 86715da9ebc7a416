// Allocation guard for the control-plane apply path.
//
// This binary replaces the global operator new with a counting one and pins
// a structural property of the hot path: once warmed up, applying a
// stability-report batch — FrontierEngine::on_ack_batch directly, and a
// Stabilizer's ACKBATCH and DATA receive path — performs zero heap
// allocations per frame. Monitors fire and waiters wake inside the counted
// region; parking a waiter (which stores its callback) stays outside it.
// Frame decoding is outside the claim too: an ACKBATCH decodes into an
// owning vector, so that case asserts the apply adds nothing on top of
// decode_ack_batch itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "config/topology.hpp"
#include "control/frontier_engine.hpp"
#include "core/stabilizer.hpp"
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

}  // namespace
}  // namespace stab
