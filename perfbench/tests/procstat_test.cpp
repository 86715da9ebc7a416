// Thread attribution from outside the library: a real-time transport's Env
// and IO threads are told apart correctly, and per-thread CPU adds up to no
// more than the process's.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>

#include "net/tcp_transport.hpp"
#include "procstat.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

uint64_t cpu_of(pid_t tid) {
  SchedStat s;
  EXPECT_TRUE(read_schedstat(tid, s));
  return s.cpu_ns;
}

void burn(std::chrono::milliseconds d) {
  const int64_t until = wall_ns() + d.count() * 1'000'000;
  volatile uint64_t x = 0;
  while (wall_ns() < until) x = x + 1;
}

uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof sa;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  ::close(fd);
  return ntohs(sa.sin_port);
}

struct Pair {
  std::vector<stab::TcpPeerAddr> addrs;
  std::unique_ptr<stab::TcpTransport> t[2];
  ThreadRoles roles[2];
};

void build_pair(Pair& p) {
  p.addrs = {{"127.0.0.1", free_port()}, {"127.0.0.1", free_port()}};
  for (int n = 1; n >= 0; --n) {
    const auto before = list_tasks();
    p.t[n] = std::make_unique<stab::TcpTransport>(n, p.addrs);
    const auto spawned = new_tasks(before, list_tasks());
    ASSERT_EQ(spawned.size(), 2u);
    ASSERT_TRUE(identify_roles(spawned, p.t[n]->env(), p.roles[n]));
    EXPECT_NE(p.roles[n].env, p.roles[n].io);
  }
  ASSERT_TRUE(p.t[0]->wait_connected(stab::seconds(10)));
  ASSERT_TRUE(p.t[1]->wait_connected(stab::seconds(10)));
}

TEST(ThreadRoles, EnvThreadRunsEnvWork) {
  Pair p;
  ASSERT_NO_FATAL_FAILURE(build_pair(p));
  const ThreadRoles r = p.roles[0];
  const uint64_t env0 = cpu_of(r.env), io0 = cpu_of(r.io);
  std::promise<void> done;
  p.t[0]->env().post([&] {
    burn(std::chrono::milliseconds(60));
    done.set_value();
  });
  done.get_future().wait();
  const uint64_t env_d = cpu_of(r.env) - env0, io_d = cpu_of(r.io) - io0;
  EXPECT_GE(env_d, 40'000'000u);
  EXPECT_LT(io_d, 20'000'000u);
  p.t[1]->shutdown();
  p.t[0]->shutdown();
}

TEST(ThreadRoles, IoThreadMovesTheBytes) {
  Pair p;
  ASSERT_NO_FATAL_FAILURE(build_pair(p));
  constexpr int kFrames = 300;
  std::atomic<int> got{0};
  p.t[1]->set_receive_handler(
      [&](stab::NodeId, stab::BytesView, uint64_t) { ++got; });
  const ThreadRoles r = p.roles[1];
  const uint64_t env0 = cpu_of(r.env), io0 = cpu_of(r.io);
  auto frame = std::make_shared<const stab::Bytes>(1 << 20, 7);
  for (int i = 0; i < kFrames; ++i) p.t[0]->send_shared(1, frame);
  const int64_t deadline = wall_ns() + 30'000'000'000LL;
  while (got.load() < kFrames && wall_ns() < deadline) ::usleep(1000);
  ASSERT_EQ(got.load(), kFrames);
  // Receiving 300 MiB is socket reads and frame copies on the IO thread;
  // the Env thread only runs the empty handler.
  const uint64_t env_d = cpu_of(r.env) - env0, io_d = cpu_of(r.io) - io0;
  EXPECT_GT(io_d, 2 * env_d);
  p.t[1]->set_receive_handler(nullptr);
  p.t[1]->shutdown();
  p.t[0]->shutdown();
}

TEST(ThreadRoles, RejectsAnythingButTwoThreads) {
  Pair p;
  ASSERT_NO_FATAL_FAILURE(build_pair(p));
  ThreadRoles r;
  EXPECT_FALSE(identify_roles({}, p.t[0]->env(), r));
  EXPECT_FALSE(identify_roles({p.roles[0].io, p.roles[1].io}, p.t[0]->env(), r));
  EXPECT_TRUE(identify_roles({p.roles[0].io, p.roles[0].env}, p.t[0]->env(), r));
  EXPECT_EQ(r.env, p.roles[0].env);
  EXPECT_EQ(r.io, p.roles[0].io);
  p.t[1]->shutdown();
  p.t[0]->shutdown();
}

TEST(ProcStat, ThreadCpuSumsToAtMostProcessCpu) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::vector<pid_t> tids(3);
  std::atomic<int> ready{0};
  for (int i = 0; i < 3; ++i)
    workers.emplace_back([&, i] {
      tids[i] = current_tid();
      ++ready;
      volatile uint64_t x = 0;
      while (!stop.load()) x = x + 1;
    });
  while (ready.load() < 3) std::this_thread::yield();
  std::vector<pid_t> all = tids;
  all.push_back(current_tid());
  const uint64_t proc_before = process_cpu_ns();
  const SchedStat before = sum_schedstat(all);
  burn(std::chrono::milliseconds(100));
  const SchedStat after = sum_schedstat(all);
  const uint64_t proc_after = process_cpu_ns();  // read last
  stop = true;
  for (auto& w : workers) w.join();
  // The process clock was read first at the start and last at the end, so
  // the threads' interval is nested inside the process's.
  const uint64_t threads = after.cpu_ns - before.cpu_ns;
  const uint64_t process = proc_after - proc_before;
  EXPECT_GT(threads, 0u);
  EXPECT_LE(threads, process + 2'000'000u);  // read skew across threads
  EXPECT_GE(threads, process / 2);            // and they are most of it
}

TEST(ProcStat, CountersMove) {
  const ProcIo io0 = read_proc_io();
  for (int i = 0; i < 5; ++i) (void)read_proc_io();  // each is syscalls
  const ProcIo io1 = read_proc_io();
  EXPECT_GT(io1.syscr, io0.syscr);
  EXPECT_GT(peak_rss_mb(), 0.0);
  const uint64_t cs0 = context_switches();
  ::usleep(2000);  // sleeping is a voluntary switch
  EXPECT_GT(context_switches(), cs0);
  const auto tasks = list_tasks();
  EXPECT_NE(std::find(tasks.begin(), tasks.end(), current_tid()), tasks.end());
}

}  // namespace
}  // namespace perfbench
