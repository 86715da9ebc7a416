// Tracing for the benchmark's traced runs, recorded from outside the
// library at its public boundaries:
//
//   * TracedTransport decorates any Transport. It times every send /
//     send_shared call (the `net` enqueue) and every receive-handler
//     invocation (the `data` or `control` apply, by frame kind), and wraps
//     the Env it hands out so timer and posted callbacks the library
//     schedules are timed too.
//   * SendScope times one Stabilizer::send / send_large call on the caller's
//     thread (`core`); enqueue spans that nest inside it are its children,
//     so its self time is measured, not estimated.
//
// Spans land in per-thread buffers allocated up front; once a buffer is full
// only the per-thread totals keep counting. TraceSink::write_jsonl writes
// the kept spans out at the end of a run. Frames are forwarded unchanged.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// Frame classes the trace sorts by, from data::peek_kind.
enum class FrameClass : uint8_t {
  kData,         // DATA
  kDataBatch,    // DATABATCH
  kAckBatch,     // ACKBATCH
  kReportBatch,  // REPORTBATCH
  kResume,       // RESUME
  kOther,        // application kinds and anything unparseable
};
inline constexpr size_t kNumFrameClasses = 6;

FrameClass classify(stab::BytesView frame);

enum class SpanKind : uint8_t { kSend, kEnqueue, kReceive, kEnvTask };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;      // send: the first seq; enqueue/receive: peer id
  int64_t parent = -1; // enqueue inside a send: that send's seq
  SpanKind kind = SpanKind::kSend;
  FrameClass frame = FrameClass::kOther;
  uint32_t bytes = 0;
};

/// Totals for one thread. Written only by that thread while the run is
/// live; read once traffic has stopped.
struct ThreadTotals {
  pid_t tid = 0;
  uint64_t sends = 0;
  uint64_t send_ns = 0;
  uint64_t send_child_ns = 0;  // enqueue time nested inside sends
  uint64_t env_tasks = 0;
  uint64_t env_task_ns = 0;
  std::array<uint64_t, kNumFrameClasses> enq_frames{};
  std::array<uint64_t, kNumFrameClasses> enq_bytes{};
  std::array<uint64_t, kNumFrameClasses> enq_ns{};
  std::array<uint64_t, kNumFrameClasses> recv_frames{};
  std::array<uint64_t, kNumFrameClasses> recv_ns{};

  /// Time in top-level library calls on this thread: sends, receive
  /// handlers and Env tasks (none of which nest inside another here).
  uint64_t library_ns() const;
};

class TraceSink {
 public:
  explicit TraceSink(size_t spans_per_thread = 1 << 16);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record_enqueue(FrameClass c, size_t bytes, int64_t start_ns,
                      int64_t end_ns, stab::NodeId dst);
  void record_receive(FrameClass c, size_t bytes, int64_t start_ns,
                      int64_t end_ns, stab::NodeId src);
  void record_env_task(int64_t start_ns, int64_t end_ns);

  /// Sum of every thread's totals (tid 0).
  ThreadTotals total() const;
  /// Totals of the threads with id `tid` (several buffers when the sink
  /// outlived a thread id's reuse; summed).
  ThreadTotals for_thread(pid_t tid) const;
  uint64_t spans_kept() const;
  uint64_t spans_dropped() const;

  /// Writes every kept span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class SendScope;
  struct Buffer {
    ThreadTotals totals;
    std::unique_ptr<Span[]> spans;
    size_t used = 0;
    uint64_t dropped = 0;
    // Open send on this thread (SendScope), for parenting enqueue spans.
    bool in_send = false;
    int64_t send_child_ns = 0;
    int64_t send_seq = -1;

    void push(const Span& s, size_t capacity) {
      if (used < capacity)
        spans[used++] = s;
      else
        ++dropped;
    }
  };
  Buffer& local();

  const uint64_t id_;
  const size_t capacity_;
  mutable std::mutex mutex_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one send / send_large call on the calling thread.
class SendScope {
 public:
  explicit SendScope(TraceSink* sink);
  /// Records the span; `seq` is the first seq the call issued.
  void done(int64_t seq);

 private:
  TraceSink* sink_;
  TraceSink::Buffer* buf_ = nullptr;
  int64_t start_ns_ = 0;
};

/// Env that forwards to another and times each callback it runs.
class TimedEnv final : public stab::Env {
 public:
  TimedEnv(stab::Env& inner, TraceSink& sink) : inner_(inner), sink_(sink) {}
  stab::TimePoint now() const override { return inner_.now(); }
  stab::TimerId schedule_after(stab::Duration delay,
                               std::function<void()> fn) override;
  void cancel(stab::TimerId id) override { inner_.cancel(id); }

 private:
  stab::Env& inner_;
  TraceSink& sink_;
};

class TracedTransport final : public stab::Transport {
 public:
  /// `inner` and `sink` must outlive this object and every callback it
  /// installs (the library cancels its timers when it is destroyed).
  TracedTransport(stab::Transport& inner, TraceSink& sink);

  stab::NodeId self() const override { return inner_.self(); }
  size_t cluster_size() const override { return inner_.cluster_size(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void send(stab::NodeId dst, stab::Bytes frame,
            uint64_t wire_size = 0) override;
  void send_shared(stab::NodeId dst, std::shared_ptr<const stab::Bytes> frame,
                   uint64_t wire_size = 0) override;
  stab::Env& env() override { return env_; }
  bool single_threaded() const override { return inner_.single_threaded(); }
  void set_direct_dispatch(bool on) override { inner_.set_direct_dispatch(on); }

 private:
  stab::Transport& inner_;
  TraceSink& sink_;
  TimedEnv env_;
};

}  // namespace perfbench
