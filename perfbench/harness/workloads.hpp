// The benchmark's workloads and the per-layer accounting they share.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/stabilizer.hpp"
#include "procstat.hpp"
#include "traced_transport.hpp"
#include "util.hpp"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// Null for an untraced pass. Otherwise every transport is wrapped in a
  /// TracedTransport on this sink and every send is timed.
  TraceSink* sink = nullptr;
};

Report run_geo_sim(const RunOptions& o);
Report run_tcp_bulk(const RunOptions& o);

/// Process- and thread-level counters at one instant.
struct Snapshot {
  int64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  ProcIo io;
  uint64_t ctxsw = 0;
  SchedStat env, io_threads, loadgen;
};

/// Thread ids of the roles whose schedstat the traced pass reports.
struct Roles {
  std::vector<pid_t> env;
  std::vector<pid_t> io;
  pid_t loadgen = 0;
};

Snapshot take_snapshot(const Roles& roles);

/// Accumulates (end - begin) of several measured windows.
struct WindowTotals {
  double wall_s = 0;
  double cpu_us = 0;
  double syscr = 0, syscw = 0, ctxsw = 0;
  double env_cpu_us = 0, env_wait_us = 0;
  double io_cpu_us = 0;
  double loadgen_cpu_us = 0, loadgen_wait_us = 0;
  void add(const Snapshot& begin, const Snapshot& end);
};

/// Control-plane counters of StabilizerStats, summed over nodes.
struct ControlCounts {
  double entries_applied = 0;  // ack + report entries
  double evals = 0;
  double skipped = 0;  // index + binding skips
  void add(const stab::StabilizerStats& s);
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  double ops = 0;            // generator writes
  double messages = 0;       // sequenced messages (a large write is several)
  double peers = 0;          // receivers of each message
  double payload_bytes = 0;  // payload bytes of all messages
  WindowTotals window;
  ThreadTotals all;      // every thread's trace totals
  ThreadTotals generator_thread;  // trace totals of the thread driving the run
  ControlCounts control;
  double frontier_advances = 0;
  std::vector<double> waiter_wake_us;
  std::vector<double> late_us;
};

/// Appends the per-layer metrics (every name in BENCHMARK.json's per_layer
/// list except trace.overhead, which needs the untraced pass).
void add_layer_metrics(const LayerInputs& in, Report& out);

/// The eight Table III predicate shapes every geo_sim node registers.
const std::vector<std::string>& table3_predicates();

}  // namespace perfbench
