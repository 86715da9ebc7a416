// The trace decorator must not change what it wraps: frames pass through
// byte-identical, its frame classes agree with data::peek_kind, and a
// simulated cluster behaves identically with and without it.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "core/stabilizer.hpp"
#include "data/wire.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"
#include "traced_transport.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using stab::Bytes;
using stab::BytesView;
using stab::NodeId;
using stab::SeqNum;

/// Records what reaches it and lets the test inject received frames.
class RecordingTransport final : public stab::Transport {
 public:
  struct Sent {
    NodeId dst;
    Bytes frame;
    uint64_t wire_size;
    const Bytes* shared;  // buffer identity for send_shared, else null
  };
  stab::NodeId self() const override { return 0; }
  size_t cluster_size() const override { return 3; }
  void set_receive_handler(ReceiveHandler h) override { handler = std::move(h); }
  void send(NodeId dst, Bytes frame, uint64_t wire_size) override {
    if (send_delay.count() > 0) std::this_thread::sleep_for(send_delay);
    sent.push_back(Sent{dst, std::move(frame), wire_size, nullptr});
  }
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size) override {
    sent.push_back(Sent{dst, *frame, wire_size, frame.get()});
  }
  stab::Env& env() override { return sim; }
  bool single_threaded() const override { return true; }
  void set_direct_dispatch(bool on) override { direct = on; }

  stab::sim::Simulator sim;
  ReceiveHandler handler;
  std::vector<Sent> sent;
  bool direct = false;
  std::chrono::microseconds send_delay{0};
};

std::vector<Bytes> sample_frames() {
  std::vector<Bytes> frames;
  const Bytes payload = {1, 2, 3, 4, 5};
  frames.push_back(stab::data::encode_data(2, 7, BytesView(payload), 0));
  stab::data::AckBatchFrame ack;
  ack.reporter = 1;
  ack.entries.push_back(stab::data::AckEntry{0, 0, 42, {}});
  frames.push_back(stab::data::encode(ack));
  stab::data::DataBatchFrame batch;
  batch.origin = 0;
  batch.first_seq = 3;
  batch.entries.push_back({BytesView(payload), 0});
  batch.entries.push_back({BytesView(payload), 0});
  frames.push_back(stab::data::encode(batch));
  stab::data::ResumeFrame resume;
  frames.push_back(stab::data::encode(resume));
  frames.push_back(Bytes{0x41, 9, 9});  // application kind
  frames.push_back(Bytes{});            // empty
  return frames;
}

TEST(Classify, AgreesWithPeekKind) {
  std::vector<Bytes> frames = sample_frames();
  for (int b = 0; b < 256; ++b)
    for (size_t len : {1, 2, 17})
      frames.push_back(Bytes(len, static_cast<uint8_t>(b)));
  stab::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Bytes f(1 + rng.next_below(40));
    for (auto& x : f) x = static_cast<uint8_t>(rng.next_u64());
    frames.push_back(std::move(f));
  }
  for (const Bytes& f : frames) {
    const auto kind = stab::data::peek_kind(BytesView(f));
    const FrameClass c = classify(BytesView(f));
    if (!kind) {
      EXPECT_EQ(c, FrameClass::kOther);
      continue;
    }
    switch (*kind) {
      case stab::data::FrameKind::kData:
        EXPECT_EQ(c, FrameClass::kData);
        break;
      case stab::data::FrameKind::kDataBatch:
        EXPECT_EQ(c, FrameClass::kDataBatch);
        break;
      case stab::data::FrameKind::kAckBatch:
        EXPECT_EQ(c, FrameClass::kAckBatch);
        break;
      case stab::data::FrameKind::kReportBatch:
        EXPECT_EQ(c, FrameClass::kReportBatch);
        break;
      case stab::data::FrameKind::kResume:
        EXPECT_EQ(c, FrameClass::kResume);
        break;
    }
  }
}

TEST(TracedTransport, ForwardsEveryFrameByteIdentical) {
  RecordingTransport inner;
  TraceSink sink;
  TracedTransport traced(inner, sink);
  EXPECT_EQ(traced.self(), inner.self());
  EXPECT_EQ(traced.cluster_size(), inner.cluster_size());
  EXPECT_TRUE(traced.single_threaded());
  traced.set_direct_dispatch(true);
  EXPECT_TRUE(inner.direct);

  const std::vector<Bytes> frames = sample_frames();
  std::vector<std::shared_ptr<const Bytes>> shared;
  for (size_t i = 0; i < frames.size(); ++i) {
    traced.send(1, frames[i], i);
    shared.push_back(std::make_shared<const Bytes>(frames[i]));
    traced.send_shared(2, shared.back(), 100 + i);
  }
  ASSERT_EQ(inner.sent.size(), 2 * frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto& plain = inner.sent[2 * i];
    const auto& sh = inner.sent[2 * i + 1];
    EXPECT_EQ(plain.dst, 1u);
    EXPECT_EQ(plain.frame, frames[i]);
    EXPECT_EQ(plain.wire_size, i);
    EXPECT_EQ(sh.dst, 2u);
    EXPECT_EQ(sh.frame, frames[i]);
    EXPECT_EQ(sh.wire_size, 100 + i);
    EXPECT_EQ(sh.shared, shared[i].get());  // the same buffer, not a copy
  }

  std::vector<Bytes> received;
  std::vector<std::pair<NodeId, uint64_t>> meta;
  traced.set_receive_handler([&](NodeId src, BytesView f, uint64_t wire) {
    received.emplace_back(f.begin(), f.end());
    meta.emplace_back(src, wire);
  });
  ASSERT_TRUE(inner.handler);
  for (size_t i = 0; i < frames.size(); ++i)
    inner.handler(static_cast<NodeId>(i % 3), BytesView(frames[i]), 7 * i);
  ASSERT_EQ(received, frames);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(meta[i].first, static_cast<NodeId>(i % 3));
    EXPECT_EQ(meta[i].second, 7 * i);
  }

  const ThreadTotals t = sink.total();
  for (size_t c = 0; c < kNumFrameClasses; ++c) {
    EXPECT_EQ(t.enq_frames[c], 2 * t.recv_frames[c]);
  }
  EXPECT_EQ(t.enq_frames[static_cast<size_t>(FrameClass::kData)], 2u);
  EXPECT_EQ(t.recv_frames[static_cast<size_t>(FrameClass::kOther)], 2u);

  traced.set_receive_handler(nullptr);
  EXPECT_FALSE(inner.handler);
}

TEST(TracedTransport, EnvForwardsTimersAndTimesThem) {
  RecordingTransport inner;
  TraceSink sink;
  TracedTransport traced(inner, sink);
  int ran = 0;
  traced.env().schedule_after(stab::millis(5), [&] { ++ran; });
  const stab::TimerId cancelled =
      traced.env().schedule_after(stab::millis(6), [&] { ran += 100; });
  traced.env().cancel(cancelled);
  inner.sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(traced.env().now(), stab::millis(5));
  EXPECT_EQ(sink.total().env_tasks, 1u);
}

TEST(SendScope, SelfTimeExcludesNestedEnqueue) {
  RecordingTransport inner;
  inner.send_delay = std::chrono::microseconds(2000);
  TraceSink sink;
  TracedTransport traced(inner, sink);
  SendScope scope(&sink);
  traced.send(1, Bytes{1, 0, 0}, 0);
  traced.send(2, Bytes{1, 0, 0}, 0);
  scope.done(41);
  traced.send(1, Bytes{1, 0, 0}, 0);  // outside any send: not a child

  const ThreadTotals t = sink.total();
  EXPECT_EQ(t.sends, 1u);
  EXPECT_GE(t.send_child_ns, 4'000'000u);
  EXPECT_GE(t.send_ns, t.send_child_ns);
  EXPECT_LT(t.send_ns - t.send_child_ns, 2'000'000u);
  EXPECT_EQ(t.enq_frames[static_cast<size_t>(FrameClass::kData)], 3u);
  EXPECT_EQ(sink.spans_kept(), 4u);

  const std::string path = ::testing::TempDir() + "perfbench_spans.jsonl";
  ASSERT_TRUE(sink.write_jsonl(path));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  int children = 0, lines = 0;
  while (std::fgets(line, sizeof line, f)) {
    ++lines;
    if (std::strstr(line, "\"net.enqueue\"") &&
        std::strstr(line, "\"parent\":41"))
      ++children;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 4);
  EXPECT_EQ(children, 2);
}

TEST(TraceSink, KeepsCountingPastItsBuffers) {
  RecordingTransport inner;
  TraceSink sink(8);
  TracedTransport traced(inner, sink);
  for (int i = 0; i < 20; ++i) traced.send(1, Bytes{2, 0}, 0);
  EXPECT_EQ(sink.spans_kept(), 8u);
  EXPECT_EQ(sink.spans_dropped(), 12u);
  EXPECT_EQ(sink.total().enq_frames[static_cast<size_t>(FrameClass::kAckBatch)],
            20u);
}

/// Digest of every delivery and every frontier advance of a 3-node
/// simulated run, with or without the decorator.
uint64_t sim_digest(bool traced_run, ThreadTotals* totals) {
  stab::Topology topo;
  topo.add_node("a", "x");
  topo.add_node("b", "x");
  topo.add_node("c", "y");
  stab::LinkSpec near{stab::millis(2), 1e9, ""};
  stab::LinkSpec far{stab::millis(15), 1e8, ""};
  topo.set_link_bidir(0, 1, near);
  topo.set_link_bidir(0, 2, far);
  topo.set_link_bidir(1, 2, far);

  Digest d;
  TraceSink sink;
  stab::sim::Simulator sim;
  stab::SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<TracedTransport>> wrappers;
  std::vector<std::unique_ptr<stab::Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    stab::Transport* t = &cluster.transport(n);
    if (traced_run) {
      wrappers.push_back(std::make_unique<TracedTransport>(*t, sink));
      t = wrappers.back().get();
    }
    stab::StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.coalesce_max_frames = n == 1 ? 4 : 0;  // exercise DATABATCH too
    nodes.push_back(std::make_unique<stab::Stabilizer>(opts, *t));
    EXPECT_TRUE(nodes[n]->register_predicate("all", "MIN($ALLWNODES)"));
    EXPECT_TRUE(nodes[n]->register_predicate(
        "maj", "KTH_MAX(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)"));
  }
  for (NodeId n = 0; n < 3; ++n) {
    nodes[n]->set_delivery_handler(
        [&, n](NodeId origin, SeqNum seq, BytesView payload, uint64_t) {
          d.add(n);
          d.add(origin);
          d.add(static_cast<uint64_t>(seq));
          d.add(payload.size());
          d.add(static_cast<uint64_t>(sim.now().count()));
        });
    for (NodeId origin = 0; origin < 3; ++origin)
      for (const char* key : {"all", "maj"})
        nodes[n]->monitor_stability_frontier(
            key,
            [&, n, origin](SeqNum f, BytesView) {
              d.add(100 + n);
              d.add(origin);
              d.add(static_cast<uint64_t>(f));
              d.add(static_cast<uint64_t>(sim.now().count()));
            },
            origin);
  }
  stab::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const NodeId n = static_cast<NodeId>(rng.next_below(3));
    const auto at = stab::Duration(
        static_cast<int64_t>(rng.next_below(400'000'000)));
    const size_t size = 1 + rng.next_below(20000);
    sim.schedule_at(at, [&, n, size] {
      Bytes payload(size, static_cast<uint8_t>(size));
      if (size > 8192)
        nodes[n]->send_large(BytesView(payload));
      else
        nodes[n]->send(BytesView(payload));
    });
  }
  sim.run_until(stab::seconds(2));
  if (totals) *totals = sink.total();
  return d.h;
}

TEST(TracedTransport, SimulatedRunIsUnperturbed) {
  ThreadTotals totals;
  const uint64_t plain = sim_digest(false, nullptr);
  const uint64_t traced = sim_digest(true, &totals);
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain, sim_digest(false, nullptr));  // and the run is replayable
  // The decorator saw every class of traffic this run produces.
  EXPECT_GT(totals.enq_frames[static_cast<size_t>(FrameClass::kData)], 0u);
  EXPECT_GT(totals.enq_frames[static_cast<size_t>(FrameClass::kDataBatch)],
            0u);
  EXPECT_GT(totals.enq_frames[static_cast<size_t>(FrameClass::kAckBatch)],
            0u);
  EXPECT_GT(totals.recv_frames[static_cast<size_t>(FrameClass::kAckBatch)],
            0u);
  EXPECT_GT(totals.env_tasks, 0u);
}

}  // namespace
}  // namespace perfbench
