#include "procstat.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <future>
#include <memory>
#include <string>

namespace perfbench {

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> list_tasks() {
  std::vector<pid_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

bool read_schedstat(pid_t tid, SchedStat& out) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/schedstat",
                static_cast<int>(tid));
  FILE* f = std::fopen(path, "r");
  if (!f) return false;
  unsigned long long cpu = 0, wait = 0;
  const bool ok = std::fscanf(f, "%llu %llu", &cpu, &wait) == 2;
  std::fclose(f);
  if (ok) out = SchedStat{cpu, wait};
  return ok;
}

ProcIo read_proc_io() {
  ProcIo io;
  FILE* f = std::fopen("/proc/self/io", "r");
  if (!f) return io;
  char key[64];
  unsigned long long v = 0;
  while (std::fscanf(f, "%63[^:]: %llu\n", key, &v) == 2) {
    if (std::strcmp(key, "syscr") == 0) io.syscr = v;
    if (std::strcmp(key, "syscw") == 0) io.syscw = v;
  }
  std::fclose(f);
  return io;
}

uint64_t context_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw) +
         static_cast<uint64_t>(ru.ru_nivcsw);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool identify_roles(const std::vector<pid_t>& spawned, stab::Env& env,
                    ThreadRoles& out) {
  if (spawned.size() != 2) return false;
  // Shared: on a timeout the probe may still run after we return.
  auto probe = std::make_shared<std::promise<pid_t>>();
  std::future<pid_t> tid = probe->get_future();
  env.post([probe] { probe->set_value(current_tid()); });
  if (tid.wait_for(std::chrono::seconds(10)) != std::future_status::ready)
    return false;
  const pid_t env_tid = tid.get();
  if (env_tid == spawned[0]) {
    out = ThreadRoles{spawned[0], spawned[1]};
  } else if (env_tid == spawned[1]) {
    out = ThreadRoles{spawned[1], spawned[0]};
  } else {
    return false;
  }
  return true;
}

SchedStat sum_schedstat(const std::vector<pid_t>& tids) {
  SchedStat sum;
  for (pid_t t : tids) {
    SchedStat s;
    if (!read_schedstat(t, s)) continue;
    sum.cpu_ns += s.cpu_ns;
    sum.wait_ns += s.wait_ns;
  }
  return sum;
}

}  // namespace perfbench
