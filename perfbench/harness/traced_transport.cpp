#include "traced_transport.hpp"

#include <cstdio>

#include "data/wire.hpp"
#include "procstat.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_sink_id{1};

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSend: return "core.send";
    case SpanKind::kEnqueue: return "net.enqueue";
    case SpanKind::kReceive: return "receive";
    case SpanKind::kEnvTask: return "env.task";
  }
  return "?";
}

const char* frame_class_name(FrameClass c) {
  switch (c) {
    case FrameClass::kData: return "DATA";
    case FrameClass::kDataBatch: return "DATABATCH";
    case FrameClass::kAckBatch: return "ACKBATCH";
    case FrameClass::kReportBatch: return "REPORTBATCH";
    case FrameClass::kResume: return "RESUME";
    case FrameClass::kOther: return "OTHER";
  }
  return "?";
}

void add_totals(ThreadTotals& into, const ThreadTotals& t) {
  into.sends += t.sends;
  into.send_ns += t.send_ns;
  into.send_child_ns += t.send_child_ns;
  into.env_tasks += t.env_tasks;
  into.env_task_ns += t.env_task_ns;
  for (size_t c = 0; c < kNumFrameClasses; ++c) {
    into.enq_frames[c] += t.enq_frames[c];
    into.enq_bytes[c] += t.enq_bytes[c];
    into.enq_ns[c] += t.enq_ns[c];
    into.recv_frames[c] += t.recv_frames[c];
    into.recv_ns[c] += t.recv_ns[c];
  }
}

}  // namespace

FrameClass classify(stab::BytesView frame) {
  const auto kind = stab::data::peek_kind(frame);
  if (!kind) return FrameClass::kOther;
  switch (*kind) {
    case stab::data::FrameKind::kData: return FrameClass::kData;
    case stab::data::FrameKind::kDataBatch: return FrameClass::kDataBatch;
    case stab::data::FrameKind::kAckBatch: return FrameClass::kAckBatch;
    case stab::data::FrameKind::kReportBatch: return FrameClass::kReportBatch;
    case stab::data::FrameKind::kResume: return FrameClass::kResume;
  }
  return FrameClass::kOther;
}

uint64_t ThreadTotals::library_ns() const {
  uint64_t ns = send_ns + env_task_ns;
  for (uint64_t r : recv_ns) ns += r;
  return ns;
}

TraceSink::TraceSink(size_t spans_per_thread)
    : id_(g_next_sink_id.fetch_add(1)), capacity_(spans_per_thread) {}

TraceSink::~TraceSink() = default;

TraceSink::Buffer& TraceSink::local() {
  thread_local uint64_t cached_sink = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_sink == id_) return *cached;
  const pid_t tid = current_tid();
  std::lock_guard<std::mutex> lock(mutex_);
  Buffer* found = nullptr;
  // A thread id seen before belongs to a thread that has exited (ids are
  // unique among live threads), so its buffer can be continued.
  for (auto& b : buffers_)
    if (b->totals.tid == tid) found = b.get();
  if (!found) {
    auto b = std::make_unique<Buffer>();
    b->totals.tid = tid;
    // Default-initialised: pages are only touched as spans are written.
    b->spans.reset(new Span[capacity_]);
    found = b.get();
    buffers_.push_back(std::move(b));
  }
  cached_sink = id_;
  cached = found;
  return *found;
}

void TraceSink::record_enqueue(FrameClass c, size_t bytes, int64_t start_ns,
                               int64_t end_ns, stab::NodeId dst) {
  Buffer& b = local();
  const size_t i = static_cast<size_t>(c);
  const int64_t ns = end_ns - start_ns;
  ++b.totals.enq_frames[i];
  b.totals.enq_bytes[i] += bytes;
  b.totals.enq_ns[i] += static_cast<uint64_t>(ns);
  if (b.in_send) b.send_child_ns += ns;
  b.push(Span{start_ns, end_ns, static_cast<int64_t>(dst),
              b.in_send ? b.send_seq : -1, SpanKind::kEnqueue, c,
              static_cast<uint32_t>(bytes)},
         capacity_);
}

void TraceSink::record_receive(FrameClass c, size_t bytes, int64_t start_ns,
                               int64_t end_ns, stab::NodeId src) {
  Buffer& b = local();
  const size_t i = static_cast<size_t>(c);
  ++b.totals.recv_frames[i];
  b.totals.recv_ns[i] += static_cast<uint64_t>(end_ns - start_ns);
  b.push(Span{start_ns, end_ns, static_cast<int64_t>(src), -1,
              SpanKind::kReceive, c, static_cast<uint32_t>(bytes)},
         capacity_);
}

void TraceSink::record_env_task(int64_t start_ns, int64_t end_ns) {
  Buffer& b = local();
  ++b.totals.env_tasks;
  b.totals.env_task_ns += static_cast<uint64_t>(end_ns - start_ns);
  b.push(Span{start_ns, end_ns, -1, -1, SpanKind::kEnvTask, FrameClass::kOther,
              0},
         capacity_);
}

ThreadTotals TraceSink::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ThreadTotals sum;
  for (const auto& b : buffers_) add_totals(sum, b->totals);
  return sum;
}

ThreadTotals TraceSink::for_thread(pid_t tid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ThreadTotals sum;
  sum.tid = tid;
  for (const auto& b : buffers_)
    if (b->totals.tid == tid) add_totals(sum, b->totals);
  return sum;
}

uint64_t TraceSink::spans_kept() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->used;
  return n;
}

uint64_t TraceSink::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool TraceSink::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->used; ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "{\"span\":\"%s\",\"tid\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"id\":%lld,\"parent\":%lld,"
                   "\"frame\":\"%s\",\"bytes\":%u}\n",
                   span_kind_name(s.kind), static_cast<int>(b->totals.tid),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), frame_class_name(s.frame),
                   s.bytes);
    }
  }
  return std::fclose(f) == 0;
}

SendScope::SendScope(TraceSink* sink) : sink_(sink) {
  if (!sink_) return;
  buf_ = &sink_->local();
  buf_->in_send = true;
  buf_->send_child_ns = 0;
  buf_->send_seq = -1;
  start_ns_ = wall_ns();
}

void SendScope::done(int64_t seq) {
  if (!buf_) return;
  const int64_t end = wall_ns();
  buf_->in_send = false;
  ++buf_->totals.sends;
  buf_->totals.send_ns += static_cast<uint64_t>(end - start_ns_);
  buf_->totals.send_child_ns += static_cast<uint64_t>(buf_->send_child_ns);
  buf_->push(Span{start_ns_, end, seq, -1, SpanKind::kSend, FrameClass::kOther,
                  0},
             sink_->capacity_);
  // Enqueue spans recorded inside this send carry parent -1 until the seq is
  // known; fix up the ones this call appended.
  for (size_t i = buf_->used; i > 0; --i) {
    Span& s = buf_->spans[i - 1];
    if (s.start_ns < start_ns_) break;
    if (s.kind == SpanKind::kEnqueue && s.parent == -1) s.parent = seq;
  }
  buf_ = nullptr;
}

stab::TimerId TimedEnv::schedule_after(stab::Duration delay,
                                       std::function<void()> fn) {
  // Capture the sink, not this: the sink outlives every Env the run uses.
  TraceSink* sink = &sink_;
  return inner_.schedule_after(delay, [sink, fn = std::move(fn)] {
    const int64_t start = wall_ns();
    fn();
    sink->record_env_task(start, wall_ns());
  });
}

TracedTransport::TracedTransport(stab::Transport& inner, TraceSink& sink)
    : inner_(inner), sink_(sink), env_(inner.env(), sink) {}

void TracedTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) {
    inner_.set_receive_handler(nullptr);
    return;
  }
  TraceSink* sink = &sink_;
  inner_.set_receive_handler(
      [sink, handler = std::move(handler)](stab::NodeId src,
                                           stab::BytesView frame,
                                           uint64_t wire_size) {
        const FrameClass c = classify(frame);
        const size_t bytes = frame.size();
        const int64_t start = wall_ns();
        handler(src, frame, wire_size);
        sink->record_receive(c, bytes, start, wall_ns(), src);
      });
}

void TracedTransport::send(stab::NodeId dst, stab::Bytes frame,
                           uint64_t wire_size) {
  const FrameClass c = classify(frame);
  const size_t bytes = frame.size();
  const int64_t start = wall_ns();
  inner_.send(dst, std::move(frame), wire_size);
  sink_.record_enqueue(c, bytes, start, wall_ns(), dst);
}

void TracedTransport::send_shared(stab::NodeId dst,
                                  std::shared_ptr<const stab::Bytes> frame,
                                  uint64_t wire_size) {
  const FrameClass c = classify(*frame);
  const size_t bytes = frame->size();
  const int64_t start = wall_ns();
  inner_.send_shared(dst, std::move(frame), wire_size);
  sink_.record_enqueue(c, bytes, start, wall_ns(), dst);
}

}  // namespace perfbench
