// Per-thread and per-process resource counters read from outside the
// library: /proc/self/task/<tid>/schedstat (on-CPU and run-queue wait per
// thread), /proc/self/io (read/write syscall counts), getrusage (context
// switches, peak RSS) and the process CPU clock.
//
// Thread roles are told apart from outside too: a transport's threads are
// the tids that appear in /proc/self/task while it is constructed, and the
// one that runs a task posted to its Env is the Env thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

#include "common/env.hpp"

namespace perfbench {

pid_t current_tid();

/// Live thread ids of this process, sorted.
std::vector<pid_t> list_tasks();

/// Ids in `after` that are not in `before` (both sorted).
std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after);

struct SchedStat {
  uint64_t cpu_ns = 0;   // time on CPU
  uint64_t wait_ns = 0;  // time runnable but waiting for a CPU
};
/// False when the thread is gone or the file cannot be read.
bool read_schedstat(pid_t tid, SchedStat& out);

struct ProcIo {
  uint64_t syscr = 0;
  uint64_t syscw = 0;
};
ProcIo read_proc_io();

/// Voluntary + involuntary context switches of the whole process so far.
uint64_t context_switches();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// CPU time of the whole process (every thread, exited ones included), ns.
uint64_t process_cpu_ns();

/// The two threads a real-time transport owns.
struct ThreadRoles {
  pid_t env = 0;  // runs Env tasks: timers, receive handlers, callbacks
  pid_t io = 0;   // everything else the transport started (the socket loop)
};

/// Identifies `spawned` (the tids that appeared while one transport was
/// constructed) by posting a probe to its Env and waiting for it to run.
/// Returns false unless exactly one env and one io thread were found.
bool identify_roles(const std::vector<pid_t>& spawned, stab::Env& env,
                    ThreadRoles& out);

/// Sums schedstat over `tids`; a thread that cannot be read adds nothing.
SchedStat sum_schedstat(const std::vector<pid_t>& tids);

}  // namespace perfbench
