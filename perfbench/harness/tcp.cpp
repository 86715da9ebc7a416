// tcp_bulk: a 3-node TcpTransport cluster on loopback in this process.
// Node 0 writes 64 B payloads with coalesce_max_frames = 16 and the default
// ack_interval; nodes 1 and 2 mirror. One generator thread (the caller's)
// drives node 0 through the public API, in two phases on one cluster:
//
//   bulk  — closed loop, the producer is the bottleneck: at most
//           kMaxUnstable ops unstable, and every kWindowCheck sends the
//           generator blocks in waitfor_blocking until that holds again.
//           Throughput, CPU and bytes per op come from here. Throughput and
//           CPU per op are taken per block of kBlockNs after kWarmupNs, and
//           their medians over the blocks are reported.
//   paced — open loop at kPacedRate, in bursts of kBurst ops. Latency comes
//           from here: at the bulk phase's saturation the mirrors' backlog,
//           and with it every latency, swung with the host's speed.
//
// Set-up (ports, transports, connections, Stabilizers, predicates) runs
// kSetups times, kSetupGapNs apart, and a low quantile is reported; the last
// cluster is measured.
#include <arpa/inet.h>
#include <sys/prctl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "data/wire.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using stab::NodeId;
using stab::SeqNum;

constexpr size_t kNodes = 3;
constexpr int kSetups = 41;
// The host's speed changes from one tenth of a second to the next. Set-ups
// taken back to back land in one such moment, so they are spread over 4 s
// (perfbench/README.md, Noise).
constexpr int64_t kSetupGapNs = 100'000'000;
constexpr double kSetupQuantile = 0.1;
constexpr size_t kPayload = 64;
// A bound of 65536 never engaged here (the mirrors lag ~4000 ops), so the
// generator never parked. At 4096 it parks and throughput is not lower.
constexpr SeqNum kMaxUnstable = 4096;
constexpr uint64_t kWindowCheck = 256;
constexpr double kBulkShare = 0.6;  // of --seconds; the rest is paced
constexpr int64_t kBlockNs = 500'000'000;
// For the first seconds of the bulk phase, a cluster sometimes runs at a
// quarter of its later CPU per op before settling; blocks that start in
// this window are left out.
constexpr int64_t kWarmupNs = 5'000'000'000;
constexpr double kPacedRate = 100000;  // ops/s, ~20% of the bulk rate
// Small bursts: with 50 ops every 0.5 ms the median op queued behind half
// a burst, and delivery latency swung twice as much as the host's speed.
constexpr uint64_t kBurst = 10;
constexpr int64_t kBurstNs = static_cast<int64_t>(1e9 * kBurst / kPacedRate);
// Latency is tracked for at most this many paced ops, evenly spaced, so the
// records' memory does not grow with the run and peak_rss_mb stays the
// library's.
constexpr uint64_t kMaxTracked = 1 << 16;

constexpr const char* kAll = "all";
constexpr const char* kAllSource = "MIN($ALLWNODES-$MYWNODE)";
constexpr stab::Duration kDrainLimit = stab::seconds(30);

/// Asks the kernel for `n` distinct free loopback ports. bind(0) draws from
/// the ephemeral range (odd ports first on Linux; connect() prefers even
/// ones), so ports differ from run to run and from the dialers' own source
/// ports; the listeners set SO_REUSEADDR, so TIME_WAIT pairs left by an
/// earlier run do not block them.
bool pick_ports(size_t n, std::vector<uint16_t>& out) {
  std::vector<int> fds;
  bool ok = true;
  for (size_t i = 0; i < n && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof sa;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      ok = false;
      break;
    }
    out.push_back(ntohs(sa.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ok;
}

struct TcpNode {
  std::unique_ptr<stab::TcpTransport> tcp;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<stab::Stabilizer> stab;
  ThreadRoles roles;
};

struct TcpCluster {
  std::vector<TcpNode> nodes;
  TcpCluster() : nodes(kNodes) {}
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;
  ~TcpCluster() {
    for (auto& n : nodes) n.stab.reset();
    for (auto& n : nodes) n.traced.reset();
    for (auto& n : nodes)
      if (n.tcp) n.tcp->shutdown();
  }
  stab::Stabilizer& node(NodeId n) { return *nodes[n].stab; }
  Roles roles() const {
    Roles r;
    for (const auto& n : nodes) {
      r.env.push_back(n.roles.env);
      r.io.push_back(n.roles.io);
    }
    r.loadgen = current_tid();
    return r;
  }
};

struct SetupStats {
  std::vector<double> seconds;
  uint64_t dial_attempts = 0;
  uint64_t reconnects = 0;
};

uint64_t counter(const char* name) {
  return stab::obs::global().counter(name).value();
}

/// Builds one cluster. Listeners come up before the nodes that dial them
/// (the smaller id dials), so no dial races a listener that is not there.
/// The role probe's time is left out of the set-up time.
std::unique_ptr<TcpCluster> build_cluster(
    const stab::StabilizerOptions& base, TraceSink* sink, SetupStats& stats) {
  const uint64_t dials0 = counter("net.tcp.dial_attempts");
  const uint64_t reconnects0 = counter("net.tcp.reconnects");
  const int64_t start = wall_ns();
  int64_t harness_ns = 0;  // thread listing and role probe, not set-up
  std::vector<uint16_t> ports;
  if (!pick_ports(kNodes, ports)) {
    std::fprintf(stderr, "tcp: cannot reserve loopback ports\n");
    return nullptr;
  }
  std::vector<stab::TcpPeerAddr> addrs;
  for (uint16_t p : ports) addrs.push_back(stab::TcpPeerAddr{"127.0.0.1", p});
  stab::Topology topo;
  for (NodeId n = 0; n < kNodes; ++n)
    topo.add_node("n" + std::to_string(n), "loopback");
  for (NodeId a = 0; a < kNodes; ++a)
    for (NodeId b = 0; b < kNodes; ++b)
      if (a != b) topo.set_link(a, b, stab::LinkSpec{});

  auto c = std::make_unique<TcpCluster>();
  for (NodeId n = kNodes; n-- > 0;) {
    int64_t t = wall_ns();
    const std::vector<pid_t> before = list_tasks();
    harness_ns += wall_ns() - t;
    c->nodes[n].tcp = std::make_unique<stab::TcpTransport>(n, addrs);
    t = wall_ns();
    if (!identify_roles(new_tasks(before, list_tasks()),
                        c->nodes[n].tcp->env(), c->nodes[n].roles)) {
      std::fprintf(stderr, "tcp: cannot tell node %u's threads apart\n", n);
      return nullptr;
    }
    harness_ns += wall_ns() - t;
  }
  // TcpTransport::wait_connected sleeps 5 ms between polls, which would
  // round every set-up up to that grain; poll the public peer count instead,
  // yielding rather than sleeping so no timer wake-up adds to the time.
  const int64_t connect_deadline = wall_ns() + 10'000'000'000LL;
  for (NodeId n = 0; n < kNodes; ++n)
    while (c->nodes[n].tcp->connected_peers() + 1 < kNodes) {
      if (wall_ns() > connect_deadline) {
        std::fprintf(stderr, "tcp: node %u did not connect\n", n);
        return nullptr;
      }
      std::this_thread::yield();
    }
  for (NodeId n = 0; n < kNodes; ++n) {
    stab::Transport* t = c->nodes[n].tcp.get();
    if (sink) {
      c->nodes[n].traced = std::make_unique<TracedTransport>(*t, *sink);
      t = c->nodes[n].traced.get();
    }
    stab::StabilizerOptions opts = base;
    opts.topology = topo;
    opts.self = n;
    c->nodes[n].stab = std::make_unique<stab::Stabilizer>(opts, *t);
  }
  if (!c->node(0).register_predicate(kAll, kAllSource)) {
    std::fprintf(stderr, "tcp: cannot register the predicate\n");
    return nullptr;
  }
  stats.seconds.push_back(
      static_cast<double>(wall_ns() - start - harness_ns) / 1e9);
  stats.dial_attempts += counter("net.tcp.dial_attempts") - dials0;
  stats.reconnects += counter("net.tcp.reconnects") - reconnects0;
  return c;
}

/// Builds kSetups clusters, kSetupGapNs apart, and keeps the last.
std::unique_ptr<TcpCluster> set_up(const stab::StabilizerOptions& base,
                                   TraceSink* sink, SetupStats& stats) {
  std::unique_ptr<TcpCluster> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    if (i > 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSetupGapNs));
    c = build_cluster(base, sink, stats);
    if (!c) return nullptr;
  }
  std::printf(
      "setup_s p10 %.6f (min %.6f, median %.6f, max %.6f) over %d set-ups; "
      "per set-up: net.tcp.dial_attempts %.1f, net.tcp.reconnects %.1f\n",
      percentile(stats.seconds, kSetupQuantile),
      percentile(stats.seconds, 0), median(stats.seconds),
      percentile(stats.seconds, 1), kSetups,
      static_cast<double>(stats.dial_attempts) / kSetups,
      static_cast<double>(stats.reconnects) / kSetups);
  return c;
}

/// Stabilizer frame bytes that crossed a link: the codec's decode-byte
/// counters, summed over frame kinds (TCP's 12-byte frame prefix excluded).
uint64_t wire_bytes_received() {
  stab::data::flush_wire_counters();
  return counter("wire.data_decode_bytes") + counter("wire.batch_decode_bytes") +
         counter("wire.ack_decode_bytes") + counter("wire.report_decode_bytes") +
         counter("wire.resume_decode_bytes");
}

/// One tracked op; its seq and due time follow from its index. Fields are
/// written by different threads (generator, node 0's Env thread, each
/// mirror's Env thread) and read only after traffic has drained. Zero means
/// "not yet" for every time field.
struct Rec {
  int64_t send_start;
  int64_t stable_all;  // -1: the waiter fired without covering the seq
  int64_t deliver[kNodes - 1];
};

/// calloc'd array: zeroed pages, so capacity a run never reaches is never
/// resident.
template <typename T>
struct ZeroedArray {
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T[], Free> data;
  size_t capacity;
  explicit ZeroedArray(size_t n)
      : data(static_cast<T*>(std::calloc(n, sizeof(T)))), capacity(n) {
    if (!data) throw std::bad_alloc();
  }
};

/// Latency records of the tracked paced ops: op p of the paced phase (seq
/// first + p) is tracked when p % every == 0, for at most kMaxTracked ops.
/// The paced phase's op count is fixed by its rate and length, so the
/// records are too.
struct Tracking {
  uint64_t every;
  ZeroedArray<Rec> recs;
  std::atomic<SeqNum> first{-1};  // first paced seq, published before it
  explicit Tracking(uint64_t paced_ops)
      : every(std::max<uint64_t>(1, (paced_ops + kMaxTracked - 1) /
                                        kMaxTracked)),
        recs((paced_ops + every - 1) / every) {}

  Rec* find(SeqNum seq) {
    const SeqNum f = first.load(std::memory_order_acquire);
    if (f < 0 || seq < f) return nullptr;
    const uint64_t p = static_cast<uint64_t>(seq - f);
    if (p % every != 0 || p / every >= recs.capacity) return nullptr;
    return &recs.data[p / every];
  }
};

/// Frontier-advance log of node 0's `all` key (traced pass), for the gap
/// until a parked waiter returns.
struct AdvanceLog {
  std::mutex mu;
  std::vector<std::pair<SeqNum, int64_t>> entries;  // guarded by mu
  int64_t first_covering(SeqNum s) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = std::lower_bound(
        entries.begin(), entries.end(), s,
        [](const std::pair<SeqNum, int64_t>& e, SeqNum v) {
          return e.first < v;
        });
    return it == entries.end() ? 0 : it->second;
  }
};

/// Mirror-side oracle for origin 0's stream at one mirror: FIFO, no
/// duplicate, no gap, every byte as generated.
struct MirrorOracle {
  SeqNum next_seq = 0;  // touched only by the mirror's Env thread
  std::atomic<uint64_t> bad{0};
  std::atomic<int64_t> delivered_through{-1};
};

struct Run {
  uint64_t seed = 0;
  TraceSink* sink = nullptr;
  SetupStats setup;
  MirrorOracle oracle[kNodes - 1];
  AdvanceLog advances;
  std::atomic<uint64_t> frontier_advances{0};
  // Waiter callbacks that have run. A blocking wait can return (the frontier
  // is published) before the callbacks of the same advance have run, so
  // records are read only once this count is complete.
  std::atomic<uint64_t> waiters_fired{0};
  // Last, so it is destroyed first: its callbacks refer to the fields above.
  std::unique_ptr<TcpCluster> cluster;
};

void install_mirrors(Run& c, Tracking& track) {
  for (NodeId m = 1; m < kNodes; ++m) {
    MirrorOracle* o = &c.oracle[m - 1];
    const uint64_t seed = c.seed;
    c.cluster->node(m).set_delivery_handler(
        [o, seed, m, &track](NodeId origin, SeqNum seq,
                            stab::BytesView payload, uint64_t) {
          if (origin != 0 || seq != o->next_seq ||
              payload.size() != kPayload ||
              !check_payload(payload_key(seed, 0, static_cast<uint64_t>(seq)),
                             payload.data(), payload.size())) {
            o->bad.fetch_add(1, std::memory_order_relaxed);
          }
          o->next_seq = seq + 1;
          if (Rec* r = track.find(seq))
            r->deliver[m - 1] = wall_ns();
          o->delivered_through.store(seq, std::memory_order_release);
        });
  }
}

/// Traced pass: count and log node 0's frontier advances with their wall
/// time.
void install_monitors(Run& c) {
  if (!c.sink) return;
  c.cluster->node(0).monitor_stability_frontier(
      kAll, [&c](SeqNum f, stab::BytesView) {
        c.frontier_advances.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(c.advances.mu);
        c.advances.entries.emplace_back(f, wall_ns());
      });
}

/// Waits until both mirrors delivered through `last` and `waiters` waiter
/// callbacks have run. False on timeout.
bool wait_drained(Run& c, SeqNum last, uint64_t waiters) {
  const int64_t deadline = wall_ns() + kDrainLimit.count();
  for (;;) {
    bool done = c.waiters_fired.load(std::memory_order_acquire) >= waiters;
    for (auto& o : c.oracle)
      if (o.delivered_through.load(std::memory_order_acquire) < last)
        done = false;
    if (done) return true;
    if (wall_ns() > deadline) return false;
    ::usleep(200);
  }
}

double us_between(int64_t a, int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

void sleep_until(int64_t t_ns) {  // steady_clock is CLOCK_MONOTONIC
  timespec ts{};
  ts.tv_sec = t_ns / 1000000000;
  ts.tv_nsec = t_ns % 1000000000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// p99 of each block of 1000 consecutive tracked ops (about 0.2 s of paced
/// traffic in a 35 s run), 10th percentile over the blocks. Ten samples lie
/// beyond each block's p99. The pooled p99 of a run moved with how many rare
/// stalls the run happened to catch. The median block tail did not, but it
/// tripled while other processes kept three of the four vCPUs busy, when the
/// fast end of the blocks rose by a tenth (perfbench/README.md, Noise).
double block_p99(const std::vector<double>& in_send_order) {
  return block_percentile(in_send_order, 1000, 0.99, 0.1);
}

}  // namespace

Report run_tcp_bulk(const RunOptions& o) {
  Report rep;
  const double bulk_s = o.seconds * kBulkShare;
  const int64_t paced_ns = static_cast<int64_t>((o.seconds - bulk_s) * 1e9);
  const uint64_t bursts = static_cast<uint64_t>(paced_ns / kBurstNs);
  // Before the cluster, whose callbacks must not outlive it.
  Tracking track(bursts * kBurst);
  Run c;
  c.seed = o.seed;
  c.sink = o.sink;
  stab::StabilizerOptions base;
  base.coalesce_max_frames = 16;
  c.cluster = set_up(base, o.sink, c.setup);
  if (!c.cluster) {
    rep.correct = false;
    rep.attempted = rep.failed = 1;
    return rep;
  }
  stab::Stabilizer& origin = c.cluster->node(0);
  install_mirrors(c, track);
  install_monitors(c);
  const Roles roles = c.cluster->roles();
  std::vector<uint8_t> buf(kPayload);
  SeqNum last = -1;
  uint64_t failed = 0;
  auto send_next = [&](Rec* rec) {
    const uint64_t i = static_cast<uint64_t>(last + 1);
    fill_payload(payload_key(o.seed, 0, i), buf.data(), buf.size());
    if (rec) rec->send_start = wall_ns();
    SendScope scope(c.sink);
    last = origin.send(stab::BytesView(buf));
    scope.done(last);
  };
  // Every op so far stable under `all` and delivered at both mirrors, and
  // `waiters` waiter callbacks run; counts what is missing as failed.
  auto drain = [&](uint64_t waiters) {
    if (last >= 0 && !origin.waitfor_blocking(last, kAll, kDrainLimit))
      failed += static_cast<uint64_t>(
          last - std::max<SeqNum>(-1, origin.get_stability_frontier(kAll)));
    if (!wait_drained(c, last, waiters))
      for (auto& m : c.oracle)
        failed += static_cast<uint64_t>(
            last - std::min(last, m.delivered_through.load()));
  };

  // Bulk phase, cut into blocks of kBlockNs. Each block's throughput is its
  // frontier advance over its wall time; its CPU per op, the process CPU
  // over the ops sent in it. Blocks that start before `measured` only count
  // towards the per-layer totals.
  std::vector<double> wake_us, block_ops_per_s, block_cpu_us_per_op;
  const uint64_t wire0 = wire_bytes_received();
  const Snapshot begin = take_snapshot(roles);
  const int64_t bulk_deadline =
      begin.wall_ns + static_cast<int64_t>(bulk_s * 1e9);
  const int64_t measured =
      std::min(begin.wall_ns + kWarmupNs, bulk_deadline - 2 * kBlockNs);
  int64_t block_wall = begin.wall_ns;
  uint64_t block_cpu = begin.cpu_ns;
  SeqNum block_last = -1, block_frontier = -1;
  auto close_block = [&](int64_t now) {
    const uint64_t cpu = process_cpu_ns();
    const SeqNum frontier = origin.get_stability_frontier(kAll);
    if (block_wall >= measured && last > block_last && now > block_wall) {
      const double secs = static_cast<double>(now - block_wall) / 1e9;
      block_ops_per_s.push_back(
          static_cast<double>(frontier - block_frontier) / secs);
      block_cpu_us_per_op.push_back(static_cast<double>(cpu - block_cpu) /
                                    1e3 /
                                    static_cast<double>(last - block_last));
    }
    block_wall = now;
    block_cpu = cpu;
    block_last = last;
    block_frontier = frontier;
  };
  for (uint64_t i = 0;; ++i) {
    if (i % kWindowCheck == 0) {
      const int64_t now = wall_ns();
      if (now >= bulk_deadline) break;
      if (now >= block_wall + kBlockNs) close_block(now);
      const SeqNum target = last - kMaxUnstable;
      if (target >= 0 && origin.get_stability_frontier(kAll) < target) {
        if (!origin.waitfor_blocking(target, kAll, kDrainLimit)) {
          ++failed;
          break;
        }
        if (c.sink) {
          const int64_t woke = wall_ns();
          const int64_t advanced = c.advances.first_covering(target);
          if (advanced > 0) wake_us.push_back(us_between(advanced, woke));
        }
      }
    }
    send_next(nullptr);
  }
  const uint64_t bulk_ops = static_cast<uint64_t>(last + 1);
  drain(0);
  const Snapshot bulk_done = take_snapshot(roles);
  const uint64_t wire_bytes = wire_bytes_received() - wire0;
  // Per-layer totals of the bulk phase, read while traffic is quiet.
  LayerInputs in;
  if (c.sink) {
    in.all = c.sink->total();
    in.generator_thread = c.sink->for_thread(current_tid());
    for (NodeId n = 0; n < kNodes; ++n)
      in.control.add(c.cluster->node(n).stats());
    in.frontier_advances = static_cast<double>(c.frontier_advances.load());
  }

  // Paced phase: burst b of kBurst ops is due at t0 + b * kBurstNs.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on schedule
  track.first.store(last + 1, std::memory_order_release);
  const int64_t t0 = wall_ns() + 1'000'000;
  auto due_of = [&](uint64_t p) {
    return t0 + static_cast<int64_t>(p / kBurst) * kBurstNs;
  };
  for (uint64_t b = 0; b < bursts; ++b) {
    const int64_t due = due_of(b * kBurst);
    if (wall_ns() < due) sleep_until(due);
    for (uint64_t j = 0; j < kBurst; ++j) {
      const uint64_t p = b * kBurst + j;
      Rec* rec = p % track.every == 0 ? &track.recs.data[p / track.every]
                                      : nullptr;
      send_next(rec);
      if (!rec) continue;
      const SeqNum seq = last;
      origin.waitfor(last, kAll, [rec, seq, &c](SeqNum f) {
        rec->stable_all = f >= seq ? wall_ns() : -1;
        c.waiters_fired.fetch_add(1, std::memory_order_release);
      });
    }
  }
  const uint64_t tracked = track.recs.capacity;
  drain(tracked);
  // Before the samples below are gathered, so it is the library's peak.
  const double rss_mb = peak_rss_mb();

  for (auto& m : c.oracle) failed += m.bad.load();
  std::vector<double> stable_us, deliver_us, wan_all_us, wan_maj_us, late_us;
  for (uint64_t r = 0; r < tracked; ++r) {
    const Rec& x = track.recs.data[r];
    const int64_t due = due_of(r * track.every);
    if (x.stable_all <= 0) {
      ++failed;  // a waitfor that never fired with frontier >= seq
      continue;
    }
    stable_us.push_back(us_between(due, x.stable_all));
    wan_all_us.push_back(us_between(x.send_start, x.stable_all));
    late_us.push_back(us_between(due, x.send_start));
    for (int64_t d : x.deliver)
      if (d > 0) deliver_us.push_back(us_between(due, d));
    // The origin and the first mirror to deliver: a majority of 3 holds it.
    const int64_t first = *std::min_element(std::begin(x.deliver),
                                            std::end(x.deliver));
    if (first > 0) wan_maj_us.push_back(us_between(x.send_start, first));
  }
  const uint64_t ops = static_cast<uint64_t>(last + 1);
  rep.attempted = std::max<uint64_t>(ops, 1);
  rep.failed = std::min<uint64_t>(failed, rep.attempted);
  rep.correct = failed == 0 && ops > 0;
  std::printf("tcp_bulk: %llu bulk ops, %zu blocks after warm-up (ops/s p10 "
              "%.0f median %.0f p90 %.0f; cpu us/op p10 %.3f median %.3f p90 "
              "%.3f), %llu paced ops, %llu tracked\n",
              static_cast<unsigned long long>(bulk_ops),
              block_ops_per_s.size(), percentile(block_ops_per_s, 0.1),
              median(block_ops_per_s), percentile(block_ops_per_s, 0.9),
              percentile(block_cpu_us_per_op, 0.1),
              median(block_cpu_us_per_op),
              percentile(block_cpu_us_per_op, 0.9),
              static_cast<unsigned long long>(ops - bulk_ops),
              static_cast<unsigned long long>(tracked));
  std::printf("tcp_bulk: paced stable latency pooled p50 %.0f p90 %.0f "
              "p99 %.0f p99.9 %.0f us; block p99 %.0f us\n",
              percentile(stable_us, 0.5), percentile(stable_us, 0.9),
              percentile(stable_us, 0.99), percentile(stable_us, 0.999),
              block_p99(stable_us));

  WindowTotals w;
  w.add(begin, bulk_done);
  const double dops = static_cast<double>(bulk_ops);
  if (!o.sink) {
    rep.set("setup_s", percentile(c.setup.seconds, kSetupQuantile), "s");
    rep.set("ops_per_s", median(block_ops_per_s), "1/s");
    rep.set("cpu_us_per_op", median(block_cpu_us_per_op), "us");
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("stable_p50_us", percentile(stable_us, 0.5), "us");
    rep.set("stable_p99_us", block_p99(stable_us), "us");
    rep.set("deliver_p50_us", percentile(deliver_us, 0.5), "us");
    rep.set("wan_stable_all_p50_ms", percentile(wan_all_us, 0.5) / 1e3, "ms");
    rep.set("wan_stable_all_p99_ms", block_p99(wan_all_us) / 1e3, "ms");
    rep.set("wan_stable_majority_p50_ms", percentile(wan_maj_us, 0.5) / 1e3,
            "ms");
    rep.set("wan_bytes_per_op", static_cast<double>(wire_bytes) / dops, "B");
    return rep;
  }
  in.ops = dops;
  in.messages = dops;
  in.peers = kNodes - 1;
  in.payload_bytes = dops * kPayload;
  in.window = w;
  in.waiter_wake_us = std::move(wake_us);
  in.late_us = std::move(late_us);
  add_layer_metrics(in, rep);
  rep.set("cpu_us_per_op", median(block_cpu_us_per_op), "us");
  return rep;
}

}  // namespace perfbench
