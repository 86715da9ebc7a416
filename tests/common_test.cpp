// Unit tests for src/common: codec, result, rng, time helpers, stats,
// realtime env.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/realtime_env.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stab {
namespace {

TEST(Codec, RoundTripScalars) {
  Writer w;
  w.u8(0x7f);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.5);
  Bytes b = std::move(w).take();

  Reader r(b);
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripBlobAndString) {
  Writer w;
  w.str("hello");
  w.blob(to_bytes("world"));
  w.str("");
  Bytes b = std::move(w).take();

  Reader r(b);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(to_string(r.blob()), "world");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncatedThrows) {
  Writer w;
  w.u64(7);
  Bytes b = std::move(w).take();
  b.resize(4);
  Reader r(b);
  EXPECT_THROW(r.u64(), CodecError);
}

TEST(Codec, BlobLengthBeyondBufferThrows) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);
  Bytes b = std::move(w).take();
  Reader r(b);
  EXPECT_THROW(r.blob(), CodecError);
}

TEST(Codec, ReaderTracksRemaining) {
  Writer w;
  w.u32(1);
  w.u32(2);
  Bytes b = std::move(w).take();
  Reader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Result, OkAndError) {
  Result<int> ok = 7;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 7);

  auto err = Result<int>::error("boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.message(), "boom");
  EXPECT_THROW(err.value(), std::runtime_error);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  Status e = Status::error("bad");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.message(), "bad");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ParetoIsHeavyTailedAboveScale) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.next_pareto(2.0, 1.5), 2.0);
}

TEST(Time, TransmitTime) {
  // 1 MB over 8 Mbit/s = 1 second.
  EXPECT_EQ(transmit_time(1'000'000, 8e6), seconds(1));
  EXPECT_EQ(transmit_time(123, 0), Duration::zero());
}

TEST(Time, MsRoundTrip) {
  EXPECT_NEAR(to_ms(from_ms(53.87)), 53.87, 1e-9);
  EXPECT_NEAR(to_sec(from_sec(0.25)), 0.25, 1e-12);
}

TEST(Stats, BasicMoments) {
  Series s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Stats, EmptySeriesIsSafe) {
  Series s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RealtimeEnv, FiresTimerOnce) {
  RealtimeEnv env;
  std::atomic<int> fired{0};
  env.schedule_after(millis(5), [&] { ++fired; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fired.load(), 1);
}

TEST(RealtimeEnv, OrdersTimers) {
  RealtimeEnv env;
  std::mutex m;
  std::vector<int> order;
  env.schedule_after(millis(20), [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(2);
  });
  env.schedule_after(millis(5), [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(RealtimeEnv, CancelPreventsFiring) {
  RealtimeEnv env;
  std::atomic<int> fired{0};
  TimerId id = env.schedule_after(millis(30), [&] { ++fired; });
  env.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 0);
}

TEST(RealtimeEnv, RunSyncExecutesOnEnvThread) {
  RealtimeEnv env;
  bool ran = false;
  env.run_sync([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(RealtimeEnv, PostRunsSoon) {
  RealtimeEnv env;
  std::atomic<bool> ran{false};
  env.post([&] { ran = true; });
  for (int i = 0; i < 200 && !ran; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ran.load());
}

/// Holds the Env thread inside a task until release(), so a test can queue
/// work behind it and then let it all run.
class EnvGate {
 public:
  explicit EnvGate(RealtimeEnv& env) {
    env.post([this] {
      std::unique_lock<std::mutex> l(m_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(l, [this] { return open_; });
    });
    std::unique_lock<std::mutex> l(m_);
    cv_.wait(l, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> l(m_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// Posts and timers share one order, (due time, schedule order): a post is
// due when made, so a timer that fell due before a post runs before it, one
// due after it runs after it, and posts with equal due times keep their
// schedule order.
TEST(RealtimeEnv, PostsAndTimersRunByDueTimeThenScheduleOrder) {
  RealtimeEnv env;
  std::mutex m;
  std::vector<std::string> order;
  auto note = [&](std::string s) {
    return [&, s] {
      std::lock_guard<std::mutex> l(m);
      order.push_back(s);
    };
  };
  EnvGate gate(env);
  env.schedule_after(millis(200), note("timer-200ms"));
  env.post(note("post-1"));
  env.schedule_after(Duration::zero(), note("post-2"));
  env.post(note("post-3"));
  env.schedule_after(millis(1), note("timer-1ms"));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  env.post(note("post-4"));  // made after timer-1ms fell due
  gate.release();
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (order.size() == 6) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  EXPECT_EQ(order, (std::vector<std::string>{"post-1", "post-2", "post-3",
                                             "timer-1ms", "post-4",
                                             "timer-200ms"}));
}

TEST(RealtimeEnv, CancelsPendingPost) {
  RealtimeEnv env;
  std::atomic<int> cancelled{0}, kept{0};
  EnvGate gate(env);
  TimerId id = env.post([&] { ++cancelled; });
  env.post([&] { ++kept; });
  env.cancel(id);
  gate.release();
  for (int i = 0; i < 500 && kept == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(kept.load(), 1);
  EXPECT_EQ(cancelled.load(), 0);
}

TEST(SpscRing, CapacityRoundsUpAndSingleThreadFifo) {
  SpscRing<int> ring(5);  // rounds up: usable capacity >= 5
  EXPECT_GE(ring.capacity(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, FullRingRefusesAndRecoversAcrossWrap) {
  SpscRing<int> ring(2);  // allocates 4 slots, 3 usable
  const size_t cap = ring.capacity();
  // Fill / half-drain repeatedly so the indices wrap the mask several times.
  int v;
  for (int round = 0; round < 10; ++round) {
    size_t pushed = 0;
    while (ring.try_push(int(round * 100 + static_cast<int>(pushed))))
      ++pushed;
    EXPECT_EQ(pushed, cap);  // fills to capacity exactly
    EXPECT_EQ(ring.size_approx(), cap);
    EXPECT_FALSE(ring.try_push(999));  // full refuses, never overwrites
    while (ring.try_pop(v)) {
    }
  }
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, TwoThreadsTransferEverythingInOrder) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i)
      while (!ring.try_push(uint64_t(i))) std::this_thread::yield();
  });
  uint64_t expect = 0;
  while (expect < kCount) {
    uint64_t v;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);  // FIFO, no loss, no duplication
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

}  // namespace
}  // namespace stab
