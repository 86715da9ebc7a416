// Primary-failover campaigns: leased failure detection, Paxos-coordinated
// mirror promotion, and epoch fencing (DESIGN.md §6) under seed-replayable
// chaos.
//
// The FailoverCluster harness (modeled on chaos_test's ChaosCluster) runs a
// full mesh with one FailoverManager per node guarding stream 0, and checks
// the invariants from the failover acceptance list:
//   * exactly one node promotes per epoch, and every live node agrees on
//     (stream_primary, stream_epoch) after the dust settles;
//   * no SeqNum is duplicated or skipped across the epoch boundary — the
//     union of live delivery logs is exactly 0..acting_last_sent, and each
//     individual log is strictly increasing;
//   * stability frontiers stay monotone through the takeover cursor jump;
//   * every waitfor parked before the kill completes (covered) or fails
//     with a sentinel (kNoSeq / kFencedSeq) — never silently hung;
//   * the zombie ex-primary's stale-epoch frames are fenced (dropped and
//     counted), and the zombie itself self-fences on hearing TAKEOVER;
//   * whole campaigns are deterministic per seed.
//
// A failing lossy campaign prints "FAILOVER REPLAY SEED: <seed>"; replay
// with STAB_FAILOVER_SEEDS=<seed> ./failover_test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/stabilizer.hpp"
#include "failover/failover.hpp"
#include "net/sim_transport.hpp"
#include "sim/chaos.hpp"

namespace stab {
namespace {

using failover::FailoverManager;
using failover::FailoverOptions;
using sim::ChaosScript;

Topology failover_mesh(size_t n, double lat_ms = 5) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i), "r" + std::to_string(i % 2));
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  s.bandwidth_bps = mbps(100);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

StabilizerOptions failover_base_options() {
  StabilizerOptions o;
  o.ack_interval = millis(2);
  o.retransmit_timeout = millis(150);  // lossy links + post-takeover heal
  o.broadcast_acks = true;
  return o;
}

/// The same campaign with per-peer flow control and DATABATCH coalescing on:
/// a promoted primary issues its adopted stream through the same send path
/// as its own, so both options apply after promotion.
StabilizerOptions windowed_options() {
  StabilizerOptions o = failover_base_options();
  o.send_window = 8;
  o.coalesce_max_frames = 16;
  return o;
}

FailoverOptions guard_options() {
  FailoverOptions fo;
  fo.stream = 0;
  fo.lease_interval = millis(100);
  fo.lease_timeout = millis(500);
  fo.suspect_gather = millis(50);
  fo.reconcile_timeout = millis(200);
  fo.paxos_retry = millis(100);
  return fo;
}

/// A waitfor parked before the fault, and what became of it.
struct ParkedWait {
  NodeId node = kInvalidNode;
  SeqNum target = kNoSeq;
  bool fired = false;
  SeqNum result = kNoSeq;
};

struct FailoverCluster {
  FailoverCluster(size_t n, uint64_t seed,
                  StabilizerOptions base = failover_base_options(),
                  FailoverOptions guard = guard_options())
      : topo_(failover_mesh(n)), base_(std::move(base)), guard_(guard) {
    cluster = std::make_unique<SimCluster>(topo_, sim);
    cluster->network().set_drop_rng_seed(seed);
    chaos = std::make_unique<sim::ChaosSchedule>(sim, cluster->network());
    // kill_primary semantics: fail-stop, no restart handler registered.
    chaos->set_crash_handler([this](NodeId node) { kill(node); });

    logs.assign(n, std::vector<std::vector<SeqNum>>(n));
    cursors.assign(n, std::vector<std::map<std::string, SeqNum>>(n));
    nodes.resize(n);
    managers.resize(n);
    for (NodeId id = 0; id < n; ++id) boot(id);
  }

  ~FailoverCluster() {
    // Managers reference their Stabilizer; drop them first.
    for (auto& m : managers) m.reset();
  }

  Stabilizer& node(NodeId id) { return *nodes.at(id); }
  FailoverManager& manager(NodeId id) { return *managers.at(id); }
  size_t num_nodes() const { return topo_.num_nodes(); }
  bool alive(NodeId id) const { return nodes[id] != nullptr; }

  void boot(NodeId id) {
    StabilizerOptions opts = base_;
    opts.topology = topo_;
    opts.self = id;
    nodes[id] = std::make_unique<Stabilizer>(opts, cluster->transport(id));
    Stabilizer& n = *nodes[id];
    n.set_delivery_handler(
        [this, id](NodeId origin, SeqNum seq, BytesView, uint64_t) {
          logs[id][origin].push_back(seq);
        });
    for (const auto& [key, source] : predicates_)
      ASSERT_TRUE(n.register_predicate(key, source).is_ok()) << key;
    for (NodeId origin = 0; origin < topo_.num_nodes(); ++origin)
      for (const auto& [key, source] : predicates_)
        ASSERT_TRUE(n.monitor_stability_frontier(
                         key,
                         [this, id, origin, key = key](SeqNum frontier,
                                                       BytesView) {
                           auto [it, fresh] =
                               cursors[id][origin].try_emplace(key, kNoSeq);
                           EXPECT_GT(frontier, it->second)
                               << "frontier regressed: node " << id
                               << " origin " << origin << " key " << key;
                           it->second = frontier;
                           (void)fresh;
                         },
                         origin)
                        .is_ok());
    managers[id] = std::make_unique<FailoverManager>(guard_, n);
    managers[id]->start();
  }

  /// Fail-stop: the process dies with all volatile state and never comes
  /// back (contrast chaos_test's crash/restart, which snapshots + reboots).
  void kill(NodeId id) {
    managers[id].reset();
    nodes[id].reset();
    cluster->transport(id).detach();
  }

  /// Drive the guarded stream: while the configured origin is alive it
  /// sends; after a kill, whichever node promoted continues the stream via
  /// send_as. The gap between the two is the unavailability window.
  void start_stream_traffic(NodeId stream, Duration interval,
                            TimePoint until) {
    schedule_stream_send(stream, interval, until);
  }

  /// Background load on a node's own stream (piggybacked lease signal).
  void start_own_traffic(NodeId id, Duration interval, TimePoint until) {
    sim.schedule_after(interval, [this, id, interval, until] {
      if (sim.now() > until) return;
      if (nodes[id]) nodes[id]->send(to_bytes("own"));
      start_own_traffic(id, interval, until);
    });
  }

  /// Park an async waitfor on `key` for stream `origin` and record its fate.
  /// (waitfor_blocking would deadlock the sim's single thread.)
  size_t park_wait(NodeId id, NodeId origin, const std::string& key,
                   SeqNum target) {
    waits.push_back(ParkedWait{id, target, false, kNoSeq});
    size_t idx = waits.size() - 1;
    EXPECT_TRUE(nodes[id]
                    ->waitfor(
                        target, key,
                        [this, idx](SeqNum frontier) {
                          waits[idx].fired = true;
                          waits[idx].result = frontier;
                        },
                        origin)
                    .is_ok());
    return idx;
  }

  /// §III-E reaction once the fleet learns node `dead` is gone: raise every
  /// MIN frontier over it (monotone-safe — a MIN over fewer nodes can only
  /// be >= the MIN over all of them). DSL node refs are 1-based.
  void adjust_predicates_for_dead(NodeId dead) {
    const std::string source =
        "MIN($ALLWNODES-$" + std::to_string(dead + 1) + ")";
    for (NodeId id = 0; id < topo_.num_nodes(); ++id) {
      if (!nodes[id]) continue;
      Status st = nodes[id]->change_predicate("all", source);
      EXPECT_TRUE(st.is_ok()) << st.message();
    }
  }

  /// The post-campaign invariant checker for a kill of `stream`'s primary.
  void check_failover_converged(NodeId stream) {
    const size_t n = topo_.num_nodes();
    // Exactly one live node promoted and acts as the stream's primary.
    NodeId winner = kInvalidNode;
    for (NodeId id = 0; id < n; ++id) {
      if (!nodes[id]) continue;
      if (managers[id]->promoted() || nodes[id]->is_acting_primary(stream)) {
        EXPECT_EQ(winner, kInvalidNode)
            << "two promoted primaries: " << winner << " and " << id;
        winner = id;
        EXPECT_TRUE(managers[id]->promoted());
        EXPECT_TRUE(nodes[id]->is_acting_primary(stream));
        EXPECT_EQ(managers[id]->stats().promotions_won, 1u);
      }
    }
    ASSERT_NE(winner, kInvalidNode) << "no node promoted";

    // Fleet agreement on the new regime.
    for (NodeId id = 0; id < n; ++id) {
      if (!nodes[id]) continue;
      EXPECT_EQ(nodes[id]->stream_primary(stream), winner) << "node " << id;
      EXPECT_EQ(nodes[id]->stream_epoch(stream), 1u) << "node " << id;
      EXPECT_GE(managers[id]->stats().takeovers_applied, 1u) << "node " << id;
    }

    // No SeqNum duplicated or skipped across the epoch boundary: every live
    // log is strictly increasing, and the union of live logs is exactly
    // 0..acting_last_sent (the winner holds the pre-kill prefix it measured;
    // mirrors hold the post-takeover suffix — together they cover the whole
    // stream with no hole and no overlap within any one log).
    const SeqNum last = nodes[winner]->acting_last_sent(stream);
    ASSERT_GE(last, 0);
    std::set<SeqNum> seen;
    for (NodeId id = 0; id < n; ++id) {
      if (!nodes[id]) continue;
      const auto& log = logs[id][stream];
      for (size_t i = 1; i < log.size(); ++i)
        ASSERT_LT(log[i - 1], log[i])
            << "duplicate/reordered seq at node " << id;
      seen.insert(log.begin(), log.end());
    }
    // The winner's own issuance is part of the stream even though it never
    // self-delivers.
    for (SeqNum s = nodes[winner]->delivered_through(stream) + 1; s <= last;
         ++s)
      seen.insert(s);
    for (SeqNum s = 0; s <= last; ++s)
      ASSERT_TRUE(seen.count(s)) << "seq " << s << " skipped across epoch";

    // Every surviving mirror converged on the winner's stream end.
    for (NodeId id = 0; id < n; ++id) {
      if (!nodes[id] || id == winner) continue;
      EXPECT_EQ(nodes[id]->delivered_through(stream), last) << "node " << id;
      EXPECT_EQ(logs[id][stream].back(), last) << "node " << id;
    }
  }

  /// Every parked waitfor resolved — covered or failed with a sentinel —
  /// and no waiter is still parked anywhere (never silently hung).
  void check_waits_resolved() {
    for (size_t i = 0; i < waits.size(); ++i) {
      const ParkedWait& w = waits[i];
      EXPECT_TRUE(w.fired) << "wait " << i << " on node " << w.node
                           << " (target " << w.target << ") still parked";
      if (w.fired) {
        EXPECT_TRUE(w.result >= w.target || w.result == kNoSeq ||
                    w.result == kFencedSeq)
            << "wait " << i << " fired with non-sentinel frontier "
            << w.result << " below target " << w.target;
      }
    }
    for (NodeId id = 0; id < topo_.num_nodes(); ++id) {
      if (!nodes[id]) continue;
      for (NodeId origin = 0; origin < topo_.num_nodes(); ++origin)
        EXPECT_EQ(nodes[id]->engine(origin).pending_waiters(), 0u)
            << "node " << id << " origin " << origin;
    }
  }

  /// Campaign fingerprint for determinism checks: logs, regimes, frontiers.
  std::string digest() const {
    std::ostringstream out;
    for (NodeId id = 0; id < topo_.num_nodes(); ++id) {
      out << "n" << id << (nodes[id] ? ":up" : ":down");
      if (!nodes[id]) {
        out << ";";
        continue;
      }
      out << " e" << nodes[id]->stream_epoch(0) << " p"
          << nodes[id]->stream_primary(0);
      for (NodeId origin = 0; origin < topo_.num_nodes(); ++origin) {
        const auto& log = logs[id][origin];
        out << " [" << origin << "]" << log.size() << "@"
            << (log.empty() ? kNoSeq : log.back());
      }
      out << ";";
    }
    for (size_t i = 0; i < waits.size(); ++i)
      out << " w" << i << "=" << (waits[i].fired ? waits[i].result : -99);
    return out.str();
  }

  /// Data-plane counters of every live node: what went on the wire, how it
  /// was framed, and what the receivers fenced. Reads 0 under -DSTAB_OBS=OFF.
  std::string stats_digest() const {
    std::ostringstream out;
    for (NodeId id = 0; id < topo_.num_nodes(); ++id) {
      if (!nodes[id]) continue;
      StabilizerStats s = nodes[id]->stats();
      out << "n" << id << " sent=" << s.messages_sent
          << " tx=" << s.frames_transmitted << " rtx=" << s.retransmits_sent
          << " enc=" << s.data_encodes << " sh=" << s.shared_sends
          << " co=" << s.frames_coalesced << " dup=" << s.duplicates_dropped
          << " gap=" << s.gaps_detected << " fen=" << s.fenced_frames
          << " ahead=" << s.epoch_ahead_drops << ";";
    }
    return out.str();
  }

  void schedule_stream_send(NodeId stream, Duration interval,
                            TimePoint until) {
    sim.schedule_after(interval, [this, stream, interval, until] {
      if (sim.now() > until) return;
      if (nodes[stream]) {
        nodes[stream]->send(to_bytes("load"));
      } else {
        for (NodeId id = 0; id < topo_.num_nodes(); ++id)
          if (nodes[id] && managers[id]->promoted())
            nodes[id]->send_as(stream, to_bytes("load"));
      }
      schedule_stream_send(stream, interval, until);
    });
  }

  Topology topo_;
  StabilizerOptions base_;
  FailoverOptions guard_;
  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::unique_ptr<sim::ChaosSchedule> chaos;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  std::vector<std::unique_ptr<FailoverManager>> managers;
  std::vector<std::vector<std::vector<SeqNum>>> logs;  // [node][origin]
  std::vector<std::vector<std::map<std::string, SeqNum>>> cursors;
  std::vector<ParkedWait> waits;
  std::vector<std::pair<std::string, std::string>> predicates_ = {
      {"all", "MIN($ALLWNODES)"}, {"one", "MAX($ALLWNODES-$MYWNODE)"}};
};

std::string fnv64_hex(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

// --- the scripted kill_primary campaign --------------------------------------

/// Kill the primary of stream 0 mid-load at t=2s; a mirror must detect,
/// win the ballot, reconcile, and continue the stream under epoch 1. With
/// `own_traffic` off the mirrors send nothing on their own streams.
void run_kill_primary_campaign(FailoverCluster& c, double loss = 0.0,
                               bool own_traffic = true) {
  const NodeId primary = 0;
  ChaosScript script;
  if (loss > 0)
    sim::add_loss_burst(script, kTimeZero, seconds(20), loss, loss);
  sim::add_kill(script, seconds(2), primary);
  sim::finalize_script(script);
  c.chaos->arm(script);

  c.start_stream_traffic(primary, millis(10), seconds(8));
  if (own_traffic)
    for (NodeId id = 1; id < c.num_nodes(); ++id)
      c.start_own_traffic(id, millis(50), seconds(8));

  // Park waiters on the guarded stream before the kill, at targets the
  // post-takeover traffic will cover once the §III-E adjust lands.
  c.sim.schedule_at(from_sec(1.5), [&c] {
    for (NodeId id = 1; id < c.num_nodes(); ++id)
      c.park_wait(id, 0, "all", c.node(id).delivered_through(0) + 80);
  });
  // The dead primary's own frontier cell wedges every MIN($ALLWNODES)
  // predicate; the surviving fleet adjusts them out (paper §III-E).
  c.sim.schedule_at(from_sec(5), [&c] { c.adjust_predicates_for_dead(0); });

  c.sim.run_until(seconds(14));
}

TEST(Failover, KillPrimaryPromotesExactlyOneMirrorAndContinuesStream) {
  FailoverCluster c(4, /*seed=*/0xF01D);
  run_kill_primary_campaign(c);

  c.check_failover_converged(0);
  c.check_waits_resolved();
  // The pre-kill waiters were all coverable; after the predicate adjust
  // and the winner's resumed traffic they must have completed (not failed).
  for (const ParkedWait& w : c.waits) EXPECT_GE(w.result, w.target);

  // Detection/election/promotion actually ran via the protocol.
  uint64_t suspicions = 0;
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    suspicions += c.manager(id).stats().suspicions;
  EXPECT_GE(suspicions, 1u);
  NodeId winner = kInvalidNode;
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    if (c.manager(id).promoted()) winner = id;
  ASSERT_NE(winner, kInvalidNode);
  EXPECT_GE(c.manager(winner).stats().elections_proposed, 1u);
  EXPECT_GE(c.manager(winner).stats().rec_replies_received, 1u);
  EXPECT_NE(c.manager(winner).stats().suspected_at, TimePoint{});
  EXPECT_NE(c.manager(winner).stats().promoted_at, TimePoint{});
  EXPECT_GT(c.manager(winner).stats().promoted_at,
            c.manager(winner).stats().suspected_at);

#if STAB_OBS_ENABLED
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    EXPECT_GE(c.node(id).stats().takeovers_observed, 1u) << "node " << id;
#endif
}

TEST(Failover, KillPrimaryCampaignIsDeterministicPerSeed) {
  std::string digests[2];
  std::string stats[2];
  for (int run = 0; run < 2; ++run) {
    FailoverCluster c(4, /*seed=*/0xD15C);
    run_kill_primary_campaign(c, /*loss=*/0.02);
    c.check_failover_converged(0);
    digests[run] = c.digest();
    stats[run] = c.stats_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(stats[0], stats[1]);

  FailoverCluster other(4, /*seed=*/0xD15D);
  run_kill_primary_campaign(other, /*loss=*/0.02);
  EXPECT_NE(digests[0], other.digest());

  // Golden: the FNV-1a 64 hash of the seed's digest. A refactor of the
  // send path must keep it equal; a deliberate behaviour change re-records
  // it and says why.
  EXPECT_EQ(fnv64_hex(digests[0]), "9a00a2897b70d73d") << digests[0];
#if STAB_OBS_ENABLED
  EXPECT_EQ(fnv64_hex(stats[0]), "95b39d671183b78c") << stats[0];
#endif
}

// --- lossy sweep: seed-replayable property campaign --------------------------

void run_lossy_campaign(uint64_t seed, StabilizerOptions base,
                        const std::string& variant) {
  SCOPED_TRACE("failover seed " + std::to_string(seed) + " " + variant);
  FailoverCluster c(4, seed, std::move(base));
  run_kill_primary_campaign(c, /*loss=*/0.05);
  c.check_failover_converged(0);
  c.check_waits_resolved();
}

TEST(FailoverProperty, LossyKillCampaignsHoldInvariants) {
  std::vector<uint64_t> seeds = {3, 17, 29};
  if (const char* env = std::getenv("STAB_FAILOVER_SEEDS")) {
    seeds.clear();
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
  }
  for (uint64_t seed : seeds) {
    run_lossy_campaign(seed, failover_base_options(), "plain");
    run_lossy_campaign(seed, windowed_options(), "windowed+coalesced");
    if (::testing::Test::HasFailure()) {
      // The marker scripts/ci.sh greps for; replay with
      //   STAB_FAILOVER_SEEDS=<seed> ./failover_test
      std::cerr << "FAILOVER REPLAY SEED: " << seed << std::endl;
      return;
    }
  }
}

// A promoted primary keeps the original's flow control and batching: with
// send_window and coalescing on, the winner's adopted stream goes out in
// DATABATCH frames. The mirrors send nothing on their own streams, so every
// batch the winner sends belongs to the adopted stream.
TEST(Failover, PromotedPrimaryCoalescesUnderSendWindow) {
  std::string digests[2];
  for (int run = 0; run < 2; ++run) {
    FailoverCluster c(4, /*seed=*/0xD15C, windowed_options());
    std::vector<uint64_t> coalesced_at_kill(c.num_nodes(), 0);
    c.sim.schedule_at(seconds(2), [&c, &coalesced_at_kill] {
      for (NodeId id = 1; id < c.num_nodes(); ++id)
        coalesced_at_kill[id] = c.node(id).stats().frames_coalesced;
    });
    run_kill_primary_campaign(c, /*loss=*/0.05, /*own_traffic=*/false);
    c.check_failover_converged(0);
    c.check_waits_resolved();
    digests[run] = c.digest() + c.stats_digest();

    NodeId winner = kInvalidNode;
    for (NodeId id = 1; id < c.num_nodes(); ++id)
      if (c.manager(id).promoted()) winner = id;
    ASSERT_NE(winner, kInvalidNode);
#if STAB_OBS_ENABLED
    EXPECT_EQ(coalesced_at_kill[winner], 0u);
    EXPECT_GT(c.node(winner).stats().frames_coalesced,
              coalesced_at_kill[winner]);
#endif
  }
  // The windowed campaign replays deterministically per seed.
  EXPECT_EQ(digests[0], digests[1]);
}

// --- zombie fencing ----------------------------------------------------------

/// Partition (don't kill) the primary: the isolated ex-primary keeps
/// sequencing under epoch 0 while the majority side promotes a successor.
/// When the partition heals, the zombie's stale frames must be fenced at
/// every receiver, and the zombie itself must self-fence on TAKEOVER.
TEST(Failover, HealedZombiePrimaryIsFencedAndSelfFences) {
  FailoverCluster c(4, /*seed=*/0x20B1E);
  ChaosScript script;
  sim::add_partition(script, seconds(2), seconds(4), {{0}, {1, 2, 3}});
  sim::finalize_script(script);
  c.chaos->arm(script);

  // The zombie keeps sending into the partition — these seqs exist only in
  // the old epoch's sequence space and must never surface after the heal.
  c.start_stream_traffic(0, millis(10), seconds(7));
  c.sim.schedule_at(from_sec(5), [&c] { c.adjust_predicates_for_dead(0); });

  // A waitfor parked on the zombie's OWN stream at an unreachable target:
  // fencing must fail it with kFencedSeq rather than leave it hung.
  size_t own_wait = 0;
  c.sim.schedule_at(from_sec(1.5), [&c, &own_wait] {
    own_wait = c.park_wait(0, 0, "all", c.node(0).last_sent() + 100000);
  });

  c.sim.run_until(seconds(16));

  // Majority side elected a successor under epoch 1.
  NodeId winner = kInvalidNode;
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    if (c.manager(id).promoted()) {
      EXPECT_EQ(winner, kInvalidNode);
      winner = id;
    }
  ASSERT_NE(winner, kInvalidNode);

  // The healed zombie learned the takeover and fenced itself: it agrees on
  // the new regime, send() refuses, and its own-stream waiter was failed.
  EXPECT_TRUE(c.node(0).self_fenced());
  EXPECT_EQ(c.node(0).stream_primary(0), winner);
  EXPECT_EQ(c.node(0).stream_epoch(0), 1u);
  EXPECT_EQ(c.node(0).send(to_bytes("zombie")), kFencedSeq);
  EXPECT_TRUE(c.waits[own_wait].fired);
  EXPECT_EQ(c.waits[own_wait].result, kFencedSeq);
  // A waitfor issued AFTER the fence fails fast with the same sentinel.
  bool late_fired = false;
  SeqNum late_result = kNoSeq;
  ASSERT_TRUE(c.node(0)
                  .waitfor(c.node(0).last_sent() + 1, "all",
                           [&](SeqNum f) {
                             late_fired = true;
                             late_result = f;
                           })
                  .is_ok());
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(late_result, kFencedSeq);

#if STAB_OBS_ENABLED
  // The zombie's post-heal retransmissions carried epoch 0 and were
  // dropped + counted at the survivors.
  uint64_t fenced = 0;
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    fenced += c.node(id).stats().fenced_frames;
  EXPECT_GT(fenced, 0u);
  EXPECT_GE(c.node(0).stats().waiters_fenced, 1u);
#endif

  // Survivors converged on the winner's stream end; none of the zombie's
  // partition-era seqs leaked in (logs are duplicate-free and agree).
  const SeqNum last = c.node(winner).acting_last_sent(0);
  for (NodeId id = 1; id < c.num_nodes(); ++id) {
    if (id == winner) continue;
    EXPECT_EQ(c.node(id).delivered_through(0), last) << "node " << id;
    const auto& log = c.logs[id][0];
    for (size_t i = 1; i < log.size(); ++i)
      ASSERT_LT(log[i - 1], log[i]) << "duplicate seq at node " << id;
  }
}

// --- §III-E: dead NON-primary node, predicate-adjust instead of wedging ------

/// Killing a mirror must not trigger failover of stream 0, but predicates
/// whose MIN ranges over the dead node wedge; the §III-E reaction
/// (remove_predicate) fails their parked waiters with kNoSeq rather than
/// leaving them hung forever.
TEST(Failover, DeadMirrorWaitersFailViaPredicateAdjustNotWedge) {
  FailoverCluster c(4, /*seed=*/0xDEAD2);
  const NodeId victim = 2;
  ChaosScript script;
  sim::add_kill(script, seconds(2), victim);
  sim::finalize_script(script);
  c.chaos->arm(script);

  c.start_stream_traffic(0, millis(10), seconds(8));
  for (NodeId id = 1; id < c.num_nodes(); ++id)
    c.start_own_traffic(id, millis(50), seconds(8));

  // Parked before the kill at targets beyond the victim's final ack: once
  // node 2 is dead, MIN($ALLWNODES) can never reach them.
  std::vector<size_t> wedged;
  c.sim.schedule_at(from_sec(1.5), [&c, &wedged] {
    for (NodeId id : {NodeId(1), NodeId(3)})
      wedged.push_back(
          c.park_wait(id, 0, "all", c.node(id).delivered_through(0) + 2000));
  });

  // §III-E: the survivors discover "all" references the dead node and
  // remove it, failing the unsatisfiable waiters with kNoSeq.
  c.sim.schedule_at(from_sec(5), [&c, victim] {
    for (NodeId id : {NodeId(0), NodeId(1), NodeId(3)}) {
      auto keys = c.node(id).predicates_referencing(victim);
      EXPECT_FALSE(keys.empty()) << "node " << id;
      bool has_all = false;
      for (const auto& k : keys) has_all |= (k == "all");
      EXPECT_TRUE(has_all) << "node " << id;
      EXPECT_TRUE(c.node(id).remove_predicate("all").is_ok());
    }
  });

  c.sim.run_until(seconds(12));

  // No failover happened: stream 0's primary is untouched, epoch still 0.
  for (NodeId id : {NodeId(0), NodeId(1), NodeId(3)}) {
    EXPECT_EQ(c.node(id).stream_primary(0), 0u) << "node " << id;
    EXPECT_EQ(c.node(id).stream_epoch(0), 0u) << "node " << id;
    EXPECT_FALSE(c.manager(id).promoted()) << "node " << id;
  }

  // The wedged waiters were failed with kNoSeq — not left parked.
  for (size_t idx : wedged) {
    EXPECT_TRUE(c.waits[idx].fired) << "wait " << idx << " still parked";
    EXPECT_EQ(c.waits[idx].result, kNoSeq) << "wait " << idx;
  }
  c.check_waits_resolved();
}

}  // namespace
}  // namespace stab
