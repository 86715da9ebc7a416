#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

namespace {

double safe_div(double a, double b) { return b > 0 ? a / b : 0; }

size_t idx(FrameClass c) { return static_cast<size_t>(c); }

}  // namespace

Snapshot take_snapshot(const Roles& roles) {
  Snapshot s;
  s.env = sum_schedstat(roles.env);
  s.io_threads = sum_schedstat(roles.io);
  if (roles.loadgen) s.loadgen = sum_schedstat({roles.loadgen});
  s.io = read_proc_io();
  s.ctxsw = context_switches();
  s.wall_ns = wall_ns();
  s.cpu_ns = process_cpu_ns();  // last: covers every thread read above
  return s;
}

void WindowTotals::add(const Snapshot& b, const Snapshot& e) {
  auto d = [](uint64_t x, uint64_t y) {
    return y >= x ? static_cast<double>(y - x) : 0.0;
  };
  wall_s += static_cast<double>(e.wall_ns - b.wall_ns) / 1e9;
  cpu_us += d(b.cpu_ns, e.cpu_ns) / 1e3;
  syscr += d(b.io.syscr, e.io.syscr);
  syscw += d(b.io.syscw, e.io.syscw);
  ctxsw += d(b.ctxsw, e.ctxsw);
  env_cpu_us += d(b.env.cpu_ns, e.env.cpu_ns) / 1e3;
  env_wait_us += d(b.env.wait_ns, e.env.wait_ns) / 1e3;
  io_cpu_us += d(b.io_threads.cpu_ns, e.io_threads.cpu_ns) / 1e3;
  loadgen_cpu_us += d(b.loadgen.cpu_ns, e.loadgen.cpu_ns) / 1e3;
  loadgen_wait_us += d(b.loadgen.wait_ns, e.loadgen.wait_ns) / 1e3;
}

void ControlCounts::add(const stab::StabilizerStats& s) {
  entries_applied += static_cast<double>(s.ack_entries_applied +
                                         s.report_entries_applied);
  evals += static_cast<double>(s.predicate_evals);
  skipped +=
      static_cast<double>(s.evals_skipped_index + s.evals_skipped_binding);
}

void add_layer_metrics(const LayerInputs& in, Report& out) {
  const ThreadTotals& t = in.all;
  const double ops = in.ops;
  const double msg_peers = in.messages * in.peers;

  out.set("core.send_ns", safe_div(static_cast<double>(t.send_ns),
                                   static_cast<double>(t.sends)),
          "ns");
  out.set("core.send_self_ns",
          safe_div(static_cast<double>(t.send_ns - t.send_child_ns),
                   static_cast<double>(t.sends)),
          "ns");
  out.set("core.waiter_wake_us", median(in.waiter_wake_us), "us");
  out.set("loadgen.late_p99_us", percentile(in.late_us, 0.99), "us");

  const double data_frames =
      static_cast<double>(t.enq_frames[idx(FrameClass::kData)] +
                          t.enq_frames[idx(FrameClass::kDataBatch)]);
  const double data_bytes =
      static_cast<double>(t.enq_bytes[idx(FrameClass::kData)] +
                          t.enq_bytes[idx(FrameClass::kDataBatch)]);
  out.set("data.frames_per_op", safe_div(data_frames, msg_peers), "count");
  out.set("data.overhead_bytes_per_op",
          safe_div(data_bytes - in.payload_bytes * in.peers, msg_peers), "B");
  const double data_recv =
      static_cast<double>(t.recv_frames[idx(FrameClass::kData)] +
                          t.recv_frames[idx(FrameClass::kDataBatch)]);
  const double data_recv_ns =
      static_cast<double>(t.recv_ns[idx(FrameClass::kData)] +
                          t.recv_ns[idx(FrameClass::kDataBatch)]);
  out.set("data.recv_ns_per_frame", safe_div(data_recv_ns, data_recv), "ns");

  uint64_t enq_frames = 0, enq_ns = 0;
  for (size_t c = 0; c < kNumFrameClasses; ++c) {
    enq_frames += t.enq_frames[c];
    enq_ns += t.enq_ns[c];
  }
  out.set("net.enqueue_ns",
          safe_div(static_cast<double>(enq_ns),
                   static_cast<double>(enq_frames)),
          "ns");
  out.set("net.syscw_per_op", safe_div(in.window.syscw, ops), "count");
  out.set("net.syscr_per_op", safe_div(in.window.syscr, ops), "count");
  out.set("net.ctxsw_per_op", safe_div(in.window.ctxsw, ops), "count");
  out.set("net.io_cpu_us_per_op", safe_div(in.window.io_cpu_us, ops), "us");

  out.set("env.cpu_us_per_op", safe_div(in.window.env_cpu_us, ops), "us");
  out.set("env.runq_wait_us_per_op", safe_div(in.window.env_wait_us, ops),
          "us");
  out.set("loadgen.cpu_us_per_op", safe_div(in.window.loadgen_cpu_us, ops),
          "us");
  out.set("loadgen.runq_wait_us_per_op",
          safe_div(in.window.loadgen_wait_us, ops), "us");

  const double ctl_frames =
      static_cast<double>(t.enq_frames[idx(FrameClass::kAckBatch)] +
                          t.enq_frames[idx(FrameClass::kReportBatch)]);
  const double ctl_bytes =
      static_cast<double>(t.enq_bytes[idx(FrameClass::kAckBatch)] +
                          t.enq_bytes[idx(FrameClass::kReportBatch)]);
  out.set("control.frames_per_op", safe_div(ctl_frames, ops), "count");
  out.set("control.bytes_per_op", safe_div(ctl_bytes, ops), "B");
  const double ctl_recv =
      static_cast<double>(t.recv_frames[idx(FrameClass::kAckBatch)] +
                          t.recv_frames[idx(FrameClass::kReportBatch)]);
  const double ctl_recv_ns =
      static_cast<double>(t.recv_ns[idx(FrameClass::kAckBatch)] +
                          t.recv_ns[idx(FrameClass::kReportBatch)]);
  out.set("control.apply_ns_per_frame", safe_div(ctl_recv_ns, ctl_recv),
          "ns");
  out.set("control.entries_per_frame",
          safe_div(in.control.entries_applied, ctl_recv), "count");

  out.set("dsl.evals_per_entry",
          safe_div(in.control.evals, in.control.entries_applied), "count");
  out.set("dsl.skip_ratio",
          safe_div(in.control.skipped, in.control.skipped + in.control.evals),
          "ratio");
  out.set("dsl.advances_per_eval",
          safe_div(in.frontier_advances, in.control.evals), "ratio");

  // CPU of the driving thread outside the library calls timed on it.
  const double lib_us = static_cast<double>(in.generator_thread.library_ns()) / 1e3;
  out.set("sim.other_cpu_us_per_op",
          safe_div(std::max(0.0, in.window.loadgen_cpu_us - lib_us), ops),
          "us");
}

const std::vector<std::string>& table3_predicates() {
  static const std::vector<std::string> pool = {
      "MIN($ALLWNODES)",
      "MAX($ALLWNODES)",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)",
      "KTH_MIN(2,$ALLWNODES)",
      "MIN($ALLWNODES-$MYWNODE)",
      "KTH_MAX(3,($ALLWNODES-$MYWNODE))",
      "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
  };
  return pool;
}

}  // namespace perfbench
