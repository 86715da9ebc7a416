// perfbench_e2e: runs one workload and prints one JSON result line.
//
//   perfbench_e2e --workload geo_sim|tcp_bulk --seed N
//                 --seconds S --trace 0|1 [--spans-dir DIR]
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced reference pass of S/2 seconds and then a traced
// pass of S seconds with the same seed, and reports the per-layer metrics of
// the traced pass plus trace.overhead (traced / untraced CPU per op). With
// --spans-dir the traced pass's kept spans are written there as JSON lines.
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when the run completed (correct or not), 1 when a metric
// could not be produced, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Report;

const char* const kEndToEnd[] = {
    "setup_s",           "ops_per_s",          "cpu_us_per_op",
    "peak_rss_mb",       "stable_p50_us",      "stable_p99_us",
    "deliver_p50_us",    "wan_stable_all_p50_ms", "wan_stable_all_p99_ms",
    "wan_stable_majority_p50_ms", "wan_bytes_per_op",
};

const char* const kPerLayer[] = {
    "core.send_ns",          "core.send_self_ns",
    "core.waiter_wake_us",   "loadgen.late_p99_us",
    "data.frames_per_op",    "data.overhead_bytes_per_op",
    "data.recv_ns_per_frame", "net.enqueue_ns",
    "net.syscw_per_op",      "net.syscr_per_op",
    "net.ctxsw_per_op",      "net.io_cpu_us_per_op",
    "env.cpu_us_per_op",     "env.runq_wait_us_per_op",
    "loadgen.cpu_us_per_op", "loadgen.runq_wait_us_per_op",
    "control.frames_per_op", "control.bytes_per_op",
    "control.apply_ns_per_frame", "control.entries_per_frame",
    "dsl.evals_per_entry",   "dsl.skip_ratio",
    "dsl.advances_per_eval", "sim.other_cpu_us_per_op",
    "trace.overhead",
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload geo_sim|tcp_bulk "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n");
  return 2;
}

Report run(const std::string& workload, const perfbench::RunOptions& o) {
  if (workload == "geo_sim") return perfbench::run_geo_sim(o);
  return perfbench::run_tcp_bulk(o);
}

template <size_t N>
bool print_result(const Report& rep, const char* const (&names)[N]) {
  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool complete = true;
  for (size_t i = 0; i < N; ++i) {
    const perfbench::Metric* m = nullptr;
    for (const auto& x : rep.metrics)
      if (x.name == names[i]) m = &x;
    if (!m) {
      std::fprintf(stderr, "metric %s missing\n", names[i]);
      complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m->value);
    if (i > 0) out += ", ";
    out += "\"" + m->name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  if (!complete) return false;
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_dir;
  perfbench::RunOptions o;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
      have_seconds = true;
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--spans-dir") {
      spans_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || o.seconds <= 0 ||
      (trace != 0 && trace != 1) ||
      (workload != "geo_sim" && workload != "tcp_bulk"))
    return usage();

  if (trace == 0) {
    const Report rep = run(workload, o);
    return print_result(rep, kEndToEnd) ? 0 : 1;
  }

  // The untraced reference only feeds trace.overhead; half the run is
  // enough for that and keeps traced runs short.
  perfbench::RunOptions reference = o;
  reference.seconds = std::max(1.0, o.seconds / 2);
  const Report untraced = run(workload, reference);
  perfbench::TraceSink sink(4096);
  o.sink = &sink;
  Report traced = run(workload, o);
  const double base = untraced.get("cpu_us_per_op");
  traced.set("trace.overhead",
             base > 0 ? traced.get("cpu_us_per_op") / base : 0, "ratio");
  traced.correct = traced.correct && untraced.correct;
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  std::printf("trace: %llu spans kept, %llu past the per-thread buffers\n",
              static_cast<unsigned long long>(sink.spans_kept()),
              static_cast<unsigned long long>(sink.spans_dropped()));
  if (!spans_dir.empty()) {
    const std::string path = spans_dir + "/" + workload + "-seed" +
                             std::to_string(o.seed) + "-spans.jsonl";
    if (!sink.write_jsonl(path))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return print_result(traced, kPerLayer) ? 0 : 1;
}
