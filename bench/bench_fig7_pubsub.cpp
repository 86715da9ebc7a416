// E-F7: Fig 7 — pub/sub latency and throughput vs sending rate, Stabilizer
// prototype vs PulsarLite (the Apache Pulsar stand-in), on the CloudLab
// topology (Table II).
//
// 10,000 x 8 KB messages per rate, rates 250..16000 msg/s; per-site
// end-to-end latency (publish -> remote delivery ack) and throughput.
// Paper's observations:
//   * both systems saturate at the same WAN bottleneck, with comparable
//     latency that explodes once the sending rate exceeds link bandwidth;
//   * on the LAN pair (UT2, 10 Gb) Pulsar's latency grows with rate —
//     attributed to JVM garbage collection — while Stabilizer stays flat.
#include "bench_common.hpp"
#include "pubsub/broker.hpp"
#include "pulsar/pulsar_lite.hpp"

using namespace stab;
using namespace stab::bench;

namespace {

constexpr int kMessages = 10'000;
constexpr uint64_t kMsgSize = 8 * 1024;

struct SiteResult {
  double mean_latency_ms = 0;
  double thp_mbps = 0;
};

const NodeId site_ids[] = {cloudlab::kUtah2, cloudlab::kWisconsin,
                           cloudlab::kClemson, cloudlab::kMassachusetts};

/// Stabilizer pub/sub: publisher broker at Utah1, subscriber per site.
std::array<SiteResult, 4> run_stabilizer(double rate) {
  Topology topo = cloudlab_topology();
  StabilizerOptions base;
  // Latency-sensitive workload: flush stability reports almost immediately
  // (they are tiny; monotonic coalescing still bounds their number).
  base.ack_interval = micros(100);
  base.broadcast_acks = false;
  StabCluster cluster(topo, base);
  std::vector<std::unique_ptr<pubsub::Broker>> brokers;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    brokers.push_back(std::make_unique<pubsub::Broker>(cluster.node(n)));
  for (NodeId s : site_ids)
    brokers[s]->subscribe([](NodeId, SeqNum, BytesView) {});
  cluster.sim.run();  // propagate SUBs (they consume seqs 0..n)

  // Track per-site received acks at the publisher via per-site predicates.
  Stabilizer& pub = cluster.node(cloudlab::kUtah1);
  std::array<std::vector<double>, 4> arrival_ms;
  std::vector<double> send_ms;
  for (size_t i = 0; i < 4; ++i) {
    pub.register_predicate("site_" + std::to_string(i),
                           "MAX($WNODE_" +
                               topo.node(site_ids[i]).name + ")");
    auto last = std::make_shared<SeqNum>(pub.last_sent());  // skip SUB seqs
    pub.monitor_stability_frontier(
        "site_" + std::to_string(i),
        [&, i, last](SeqNum frontier, BytesView) {
          for (SeqNum s = *last + 1; s <= frontier; ++s)
            arrival_ms[i].push_back(to_ms(cluster.sim.now()));
          *last = frontier;
        });
  }

  TimePoint t0 = cluster.sim.now();
  SeqNum base_seq = pub.last_sent();
  (void)base_seq;
  for (int m = 0; m < kMessages; ++m) {
    cluster.sim.schedule_at(t0 + from_sec(m / rate), [&] {
      send_ms.push_back(to_ms(cluster.sim.now()));
      brokers[cloudlab::kUtah1]->publish({}, kMsgSize);
    });
  }
  cluster.sim.run();

  std::array<SiteResult, 4> out;
  for (size_t i = 0; i < 4; ++i) {
    Series lat;
    size_t n = std::min(arrival_ms[i].size(), send_ms.size());
    for (size_t m = 0; m < n; ++m) lat.add(arrival_ms[i][m] - send_ms[m]);
    out[i].mean_latency_ms = lat.mean();
    if (n > 0) {
      double span_s = (arrival_ms[i][n - 1] - send_ms[0]) / 1000.0;
      out[i].thp_mbps = n * kMsgSize * 8.0 / 1e6 / span_s;
    }
  }
  return out;
}

/// PulsarLite: broker per site, subscriber per remote site; acks back to
/// the origin broker measure latency.
std::array<SiteResult, 4> run_pulsar(double rate) {
  Topology topo = cloudlab_topology();
  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<pulsar::PulsarBroker>> brokers;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    pulsar::PulsarOptions opts;
    opts.self = n;
    for (NodeId m = 0; m < topo.num_nodes(); ++m) opts.brokers.push_back(m);
    brokers.push_back(std::make_unique<pulsar::PulsarBroker>(
        opts, cluster.transport(n)));
    brokers[n]->subscribe([](NodeId, uint64_t, BytesView) {});
  }

  std::array<std::vector<double>, 4> arrival_ms;
  std::vector<double> send_ms(kMessages, -1);
  brokers[cloudlab::kUtah1]->set_ack_handler(
      [&](NodeId site, uint64_t msg_id) {
        for (size_t i = 0; i < 4; ++i)
          if (site_ids[i] == site)
            arrival_ms[i].push_back(to_ms(sim.now()));
        (void)msg_id;
      });

  for (int m = 0; m < kMessages; ++m) {
    sim.schedule_at(from_sec(m / rate), [&, m] {
      send_ms[m] = to_ms(sim.now());
      brokers[cloudlab::kUtah1]->publish({}, kMsgSize);
    });
  }
  sim.run();

  std::array<SiteResult, 4> out;
  for (size_t i = 0; i < 4; ++i) {
    Series lat;
    size_t n = std::min(arrival_ms[i].size(), send_ms.size());
    for (size_t m = 0; m < n; ++m) lat.add(arrival_ms[i][m] - send_ms[m]);
    out[i].mean_latency_ms = lat.mean();
    if (n > 0) {
      double span_s = (arrival_ms[i][n - 1] - send_ms[0]) / 1000.0;
      out[i].thp_mbps = n * kMsgSize * 8.0 / 1e6 / span_s;
    }
  }
  return out;
}

}  // namespace

int main() {
  print_header("bench_fig7_pubsub — Stabilizer pub/sub vs PulsarLite",
               "Fig 7 (a) latency and (b) throughput");

  std::printf("\n10,000 x 8 KB messages per point; per publisher/subscriber "
              "pair.\n\n");
  std::printf("%7s |%22s |%22s |%22s |%22s\n", "", "UT2 (LAN 10G)",
              "WI (362 Mb)", "CLEM (416 Mb)", "MA (437 Mb)");
  std::printf("%7s |%10s %11s |%10s %11s |%10s %11s |%10s %11s\n", "rate",
              "stab", "pulsar", "stab", "pulsar", "stab", "pulsar", "stab",
              "pulsar");

  std::printf("---- (a) mean end-to-end latency (ms) ----\n");
  struct Point {
    double rate;
    std::array<SiteResult, 4> stab, pulsar;
  };
  std::vector<Point> points;
  for (double rate : {250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 12000.0,
                      16000.0}) {
    Point pt{rate, run_stabilizer(rate), run_pulsar(rate)};
    std::printf("%7.0f |", rate);
    for (size_t i = 0; i < 4; ++i)
      std::printf("%10.1f %11.1f |", pt.stab[i].mean_latency_ms,
                  pt.pulsar[i].mean_latency_ms);
    std::printf("\n");
    points.push_back(pt);
  }

  std::printf("\n---- (b) average throughput (Mbit/s) ----\n");
  for (const Point& pt : points) {
    std::printf("%7.0f |", pt.rate);
    for (size_t i = 0; i < 4; ++i)
      std::printf("%10.1f %11.1f |", pt.stab[i].thp_mbps,
                  pt.pulsar[i].thp_mbps);
    std::printf("\n");
  }

  // --- shape checks ------------------------------------------------------------
  const Point& top = points.back();
  // 16000 msg/s * 8 KB = 1048 Mb/s >> WAN links: both systems bottleneck at
  // (roughly) the link bandwidth on WAN sites.
  bool saturate = true;
  for (size_t i = 1; i < 4; ++i) {
    double link =
        cloudlab_topology().link(cloudlab::kUtah1, site_ids[i])->bandwidth_bps /
        1e6;
    saturate = saturate && top.stab[i].thp_mbps > link * 0.85 &&
               top.pulsar[i].thp_mbps > link * 0.7;
  }
  // LAN: Pulsar latency grows with rate (GC), Stabilizer stays flat.
  double stab_lan_growth =
      points.back().stab[0].mean_latency_ms - points[0].stab[0].mean_latency_ms;
  double pulsar_lan_growth = points.back().pulsar[0].mean_latency_ms -
                             points[0].pulsar[0].mean_latency_ms;
  bool lan_gap = pulsar_lan_growth > 5 * std::max(stab_lan_growth, 0.05);
  // Stabilizer as fast or faster than Pulsar everywhere.
  bool never_slower = true;
  for (const Point& pt : points)
    for (size_t i = 0; i < 4; ++i)
      never_slower = never_slower && pt.stab[i].mean_latency_ms <=
                                         pt.pulsar[i].mean_latency_ms * 1.05;

  std::printf("\nshape checks:\n");
  std::printf("  WAN sites saturate near link bandwidth (both systems): %s\n",
              saturate ? "PASS" : "FAIL");
  std::printf("  Pulsar LAN latency grows with rate (JVM GC model), "
              "Stabilizer flat: %s\n",
              lan_gap ? "PASS" : "FAIL");
  std::printf("  Stabilizer as fast or faster in all scenarios: %s\n",
              never_slower ? "PASS" : "FAIL");
  return (saturate && lan_gap && never_slower) ? 0 : 1;
}
