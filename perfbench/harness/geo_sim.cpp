// geo_sim: the paper's 8-node EC2 WAN (Fig 2 / Table I) on the simulator.
//
// Every node writes its own stream, open loop, Poisson arrivals at 1000
// ops/s, payloads of 512..1536 B (1 KiB on average), and registers the
// eight Table III predicates with broadcast acks. The run is a series of
// episodes of fixed virtual length (each a fresh cluster with its own
// derived seed) until the wall-clock budget is spent. Episode 0 is first
// run once as an unmeasured warm-up and its digest of (predicate, seq,
// virtual fire time) must match the measured replay of episode 0 exactly.
//
// Set-up time, CPU per op and throughput are taken per episode and reported
// at the fast end of the episodes (see kFastQuantile).
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "config/topology.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using stab::NodeId;
using stab::SeqNum;

constexpr double kRatePerNode = 1000.0;  // ops/s, virtual
// Payload sizes are seeded, uniform in [kMinPayload, kMaxPayload]. With one
// fixed size, a delivery that did not queue took exactly its link's latency
// plus a fixed transmit time, so the delivery p50 was the same constant in
// almost every run instead of a measurement.
constexpr size_t kMinPayload = 512;
constexpr size_t kMaxPayload = 1536;
constexpr stab::Duration kSendPhase = stab::seconds(2);
constexpr stab::Duration kDrainLimit = stab::seconds(3);
constexpr size_t kAllKey = 0;       // MIN($ALLWNODES)
constexpr size_t kMajorityKey = 2;  // KTH_MAX(SIZEOF($ALLWNODES)/2+1,...)
// Latency, byte and trace samples come from this many measured episodes,
// whatever the wall-clock budget allows beyond them, so virtual-time results
// (and the memory holding the samples) depend on the seed alone.
constexpr uint64_t kSampledEpisodes = 4;
// The host's speed changes from one tenth of a second to the next and from
// one set of runs to the next. A median over episodes followed it; the fast
// end of the episodes, where other tenants slowed the run least, did less.
constexpr double kFastQuantile = 0.1;

std::string key_name(size_t k) { return "p" + std::to_string(k); }

double to_us(stab::Duration d) {
  return static_cast<double>(d.count()) / 1e3;
}

/// Samples pooled over the measured episodes.
struct Pool {
  bool sampling = true;  // this episode is one of the sampled ones
  std::vector<float> stable_us;        // every origin, `all`
  std::vector<float> deliver_us;       // node 0's stream, every mirror
  std::vector<float> wan_all_us;       // node 0's stream, `all`
  std::vector<float> wan_majority_us;  // node 0's stream, `majority`
  // One value per measured episode.
  std::vector<double> setup_s, cpu_us_per_op, ops_per_s;
  double ops = 0;
  double failed = 0;
  double link_bytes = 0;
  double sampled_ops = 0;
  double payload_bytes = 0;
  WindowTotals window;
  ControlCounts control;
  double advances = 0;
  std::vector<double> waiter_wake_us;
  std::vector<double> late_us;
};

struct EpisodeResult {
  uint64_t digest = 0;
  bool ok = true;
};

size_t payload_size(uint64_t episode_seed, NodeId origin, uint64_t seq) {
  return kMinPayload +
         mix64(payload_key(episode_seed, origin, seq) ^ 0x517e) %
             (kMaxPayload - kMinPayload + 1);
}

/// Runs one episode. `pool` is null for the warm-up.
EpisodeResult run_episode(uint64_t episode_seed, TraceSink* sink, Pool* pool,
                          const Roles& roles) {
  const bool sample = pool && pool->sampling;
  const int64_t setup_start = wall_ns();
  const stab::Topology topo = stab::ec2_topology();
  const size_t n_nodes = topo.num_nodes();
  // Declared before the cluster: the library's callbacks refer to them.
  // Per-origin schedule and outcome records, indexed by seq.
  std::vector<std::vector<stab::TimePoint>> due(n_nodes);
  std::vector<uint64_t> fired_all(n_nodes, 0), fired_majority(n_nodes, 0);
  uint64_t bad = 0;
  Digest digest;
  // Mirror oracle: next expected seq of each origin at each node.
  std::vector<std::vector<SeqNum>> next(n_nodes,
                                        std::vector<SeqNum>(n_nodes, 0));
  // Traced pass: wall time of the latest `all` advance on each own stream.
  std::vector<int64_t> last_advance(n_nodes, 0);
  uint64_t advances = 0;

  stab::sim::Simulator sim;
  stab::SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<TracedTransport>> traced;
  std::vector<std::unique_ptr<stab::Stabilizer>> nodes;
  const auto& preds = table3_predicates();
  EpisodeResult res;
  for (NodeId n = 0; n < n_nodes; ++n) {
    stab::Transport* t = &cluster.transport(n);
    if (sink) {
      traced.push_back(std::make_unique<TracedTransport>(*t, *sink));
      t = traced.back().get();
    }
    stab::StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    nodes.push_back(std::make_unique<stab::Stabilizer>(opts, *t));
    for (size_t k = 0; k < preds.size(); ++k)
      if (!nodes[n]->register_predicate(key_name(k), preds[k])) {
        std::fprintf(stderr, "geo_sim: cannot register %s\n",
                     preds[k].c_str());
        res.ok = false;
        return res;
      }
  }
  const double setup_s =
      static_cast<double>(wall_ns() - setup_start) / 1e9;

  for (NodeId m = 0; m < n_nodes; ++m) {
    nodes[m]->set_delivery_handler([&, m](NodeId origin, SeqNum seq,
                                          stab::BytesView payload, uint64_t) {
      SeqNum& expect = next[m][origin];
      const uint64_t s = static_cast<uint64_t>(seq);
      if (seq != expect ||
          payload.size() != payload_size(episode_seed, origin, s) ||
          !check_payload(payload_key(episode_seed, origin, s), payload.data(),
                         payload.size())) {
        ++bad;
      }
      expect = seq + 1;
      if (sample && origin == 0 && seq >= 0 &&
          static_cast<size_t>(seq) < due[origin].size())
        pool->deliver_us.push_back(
            static_cast<float>(to_us(sim.now() - due[origin][seq])));
    });
    if (sink) {
      for (size_t k = 0; k < preds.size(); ++k)
        for (NodeId origin = 0; origin < n_nodes; ++origin) {
          const bool own_all = k == kAllKey && origin == m;
          nodes[m]->monitor_stability_frontier(
              key_name(k),
              [&, m, own_all](SeqNum, stab::BytesView) {
                ++advances;
                if (own_all) last_advance[m] = wall_ns();
              },
              origin);
        }
    }
  }

  // Open-loop Poisson generators, one per node.
  std::vector<stab::Rng> rngs;
  for (NodeId n = 0; n < n_nodes; ++n)
    rngs.emplace_back(mix64(episode_seed ^ (0x51ed27ULL + n)));
  std::vector<uint8_t> buf(kMaxPayload);
  uint64_t payload_bytes = 0;
  const double mean_gap_ns = 1e9 / kRatePerNode;
  std::function<void(NodeId)> fire = [&](NodeId n) {
    const int64_t dispatched = wall_ns();
    const uint64_t i = due[n].size();
    const size_t size = payload_size(episode_seed, n, i);
    fill_payload(payload_key(episode_seed, n, i), buf.data(), size);
    payload_bytes += size;
    due[n].push_back(sim.now());
    if (sample && sink)
      pool->late_us.push_back(static_cast<double>(wall_ns() - dispatched) /
                              1e3);
    SendScope scope(sink);
    const SeqNum seq = nodes[n]->send(stab::BytesView(buf.data(), size));
    scope.done(seq);
    if (seq != static_cast<SeqNum>(i)) ++bad;
    nodes[n]->waitfor(seq, key_name(kAllKey), [&, n, seq](SeqNum f) {
      if (f < seq) return;  // removed/fenced: counted as not fired
      ++fired_all[n];
      digest.add(n);
      digest.add(kAllKey);
      digest.add(static_cast<uint64_t>(seq));
      digest.add(static_cast<uint64_t>(sim.now().count()));
      if (!sample) return;
      const double us = to_us(sim.now() - due[n][seq]);
      pool->stable_us.push_back(static_cast<float>(us));
      if (n == 0) pool->wan_all_us.push_back(static_cast<float>(us));
      if (sink && last_advance[n] > 0)
        pool->waiter_wake_us.push_back(
            static_cast<double>(wall_ns() - last_advance[n]) / 1e3);
    });
    nodes[n]->waitfor(seq, key_name(kMajorityKey), [&, n, seq](SeqNum f) {
      if (f < seq) return;
      ++fired_majority[n];
      digest.add(n);
      digest.add(kMajorityKey);
      digest.add(static_cast<uint64_t>(seq));
      digest.add(static_cast<uint64_t>(sim.now().count()));
      if (sample && n == 0)
        pool->wan_majority_us.push_back(
            static_cast<float>(to_us(sim.now() - due[n][seq])));
    });
    const auto gap = stab::Duration(
        static_cast<int64_t>(rngs[n].next_exponential(mean_gap_ns)));
    if (sim.now() + gap < kSendPhase)
      sim.schedule_after(gap, [&fire, n] { fire(n); });
  };
  for (NodeId n = 0; n < n_nodes; ++n) {
    const auto first = stab::Duration(
        static_cast<int64_t>(rngs[n].next_exponential(mean_gap_ns)));
    sim.schedule_after(first, [&fire, n] { fire(n); });
  }

  const Snapshot begin = take_snapshot(roles);
  sim.run_until(kSendPhase);
  auto all_done = [&] {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (fired_all[n] < due[n].size() || fired_majority[n] < due[n].size())
        return false;
      for (NodeId m = 0; m < n_nodes; ++m)
        if (m != n && next[m][n] < static_cast<SeqNum>(due[n].size()))
          return false;
    }
    return true;
  };
  sim.run_until_pred(all_done, kSendPhase + kDrainLimit);
  const Snapshot end = take_snapshot(roles);

  uint64_t ops = 0, unstable = 0, undelivered = 0;
  for (NodeId n = 0; n < n_nodes; ++n) {
    ops += due[n].size();
    unstable += due[n].size() - std::min<uint64_t>(due[n].size(),
                                                   fired_all[n]);
    unstable += due[n].size() - std::min<uint64_t>(due[n].size(),
                                                   fired_majority[n]);
    for (NodeId m = 0; m < n_nodes; ++m)
      if (m != n && next[m][n] < static_cast<SeqNum>(due[n].size()))
        undelivered += due[n].size() - static_cast<uint64_t>(next[m][n]);
  }
  const uint64_t failed = std::min<uint64_t>(ops, bad + unstable + undelivered);
  res.ok = failed == 0;
  res.digest = digest.h;
  if (!pool) return res;

  WindowTotals episode;
  episode.add(begin, end);
  pool->setup_s.push_back(setup_s);
  pool->cpu_us_per_op.push_back(episode.cpu_us / static_cast<double>(ops));
  double stable_ops = 0;
  for (NodeId n = 0; n < n_nodes; ++n) stable_ops += fired_all[n];
  pool->ops_per_s.push_back(stable_ops / episode.wall_s);
  pool->ops += static_cast<double>(ops);
  pool->payload_bytes += static_cast<double>(payload_bytes);
  pool->failed += static_cast<double>(failed);
  if (sample) {
    pool->sampled_ops += static_cast<double>(ops);
    for (NodeId a = 0; a < n_nodes; ++a)
      for (NodeId b = 0; b < n_nodes; ++b)
        if (a != b)
          pool->link_bytes +=
              static_cast<double>(cluster.network().bytes_sent(a, b));
  }
  pool->window.add(begin, end);
  for (auto& node : nodes) pool->control.add(node->stats());
  pool->advances += static_cast<double>(advances);
  return res;
}

double pctl(const std::vector<float>& v, double q) {
  return percentile(std::vector<double>(v.begin(), v.end()), q);
}

}  // namespace

Report run_geo_sim(const RunOptions& o) {
  Report rep;
  Roles roles;  // one thread is the Env of every node and the generator
  roles.env = {current_tid()};
  roles.loadgen = current_tid();

  const EpisodeResult warm =
      run_episode(mix64(o.seed), /*sink=*/nullptr, /*pool=*/nullptr, roles);
  Pool pool;
  const int64_t deadline =
      wall_ns() + static_cast<int64_t>(o.seconds * 1e9);
  uint64_t episodes = 0;
  uint64_t replay_digest = 0;
  bool all_ok = warm.ok;
  do {
    pool.sampling = episodes < kSampledEpisodes;
    const EpisodeResult r =
        run_episode(mix64(o.seed + episodes), o.sink, &pool, roles);
    if (episodes == 0) replay_digest = r.digest;
    all_ok = all_ok && r.ok;
    ++episodes;
  } while (episodes < kSampledEpisodes || wall_ns() < deadline);

  const bool replay_ok = replay_digest == warm.digest;
  std::printf("geo_sim: %llu episodes, digest(episode 0) %016llx, replay %s\n",
              static_cast<unsigned long long>(episodes),
              static_cast<unsigned long long>(replay_digest),
              replay_ok ? "identical" : "DIFFERENT");
  rep.correct = all_ok && replay_ok && pool.failed == 0;
  rep.attempted = static_cast<uint64_t>(pool.ops);
  rep.failed = static_cast<uint64_t>(pool.failed);
  const double ops = pool.ops;

  // Before the samples are copied for their percentiles.
  const double rss_mb = peak_rss_mb();
  const double cpu_us_per_op = percentile(pool.cpu_us_per_op, kFastQuantile);
  std::printf("geo_sim: per episode cpu us/op p10 %.2f median %.2f p90 %.2f; "
              "setup ms p10 %.3f median %.3f\n",
              cpu_us_per_op, median(pool.cpu_us_per_op),
              percentile(pool.cpu_us_per_op, 0.9),
              percentile(pool.setup_s, kFastQuantile) * 1e3,
              median(pool.setup_s) * 1e3);
  if (!o.sink) {
    rep.set("setup_s", percentile(pool.setup_s, kFastQuantile), "s");
    rep.set("ops_per_s", percentile(pool.ops_per_s, 1 - kFastQuantile),
            "1/s");
    rep.set("cpu_us_per_op", cpu_us_per_op, "us");
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("stable_p50_us", pctl(pool.stable_us, 0.5), "us");
    rep.set("stable_p99_us", pctl(pool.stable_us, 0.99), "us");
    rep.set("deliver_p50_us", pctl(pool.deliver_us, 0.5), "us");
    rep.set("wan_stable_all_p50_ms", pctl(pool.wan_all_us, 0.5) / 1e3, "ms");
    rep.set("wan_stable_all_p99_ms", pctl(pool.wan_all_us, 0.99) / 1e3, "ms");
    rep.set("wan_stable_majority_p50_ms",
            pctl(pool.wan_majority_us, 0.5) / 1e3, "ms");
    rep.set("wan_bytes_per_op", pool.link_bytes / pool.sampled_ops, "B");
    return rep;
  }

  LayerInputs in;
  in.ops = ops;
  in.messages = ops;
  in.peers = 7;
  in.payload_bytes = pool.payload_bytes;
  in.window = pool.window;
  in.all = o.sink->total();
  in.generator_thread = o.sink->for_thread(current_tid());
  in.control = pool.control;
  in.frontier_advances = pool.advances;
  in.waiter_wake_us = std::move(pool.waiter_wake_us);
  in.late_us = std::move(pool.late_us);
  add_layer_metrics(in, rep);
  rep.set("cpu_us_per_op", cpu_us_per_op, "us");
  return rep;
}

}  // namespace perfbench
