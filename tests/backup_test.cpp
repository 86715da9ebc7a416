// Backup service + trace generator tests.
#include <gtest/gtest.h>

#include <memory>

#include "backup/backup_service.hpp"
#include "backup/trace.hpp"
#include "net/sim_transport.hpp"

namespace stab::backup {
namespace {

// --- trace generator ---------------------------------------------------------

TEST(Trace, MatchesPaperStatistics) {
  TraceParams params;  // defaults = the paper's slice
  auto trace = generate_dropbox_trace(params);
  TraceStats stats = summarize(trace);
  EXPECT_EQ(stats.total_bytes, params.total_bytes);  // 3.87 GB exactly
  EXPECT_LE(stats.duration, params.duration);
  EXPECT_GE(stats.max_bytes, 100'000'000ULL);  // the huge-file spikes
  EXPECT_GT(stats.num_records, 500u);
  // Sorted by time.
  for (size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].at, trace[i - 1].at);
}

TEST(Trace, DeterministicFromSeed) {
  auto a = generate_dropbox_trace();
  auto b = generate_dropbox_trace();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
  }
  TraceParams other;
  other.seed = 999;
  auto c = generate_dropbox_trace(other);
  EXPECT_NE(a.size(), c.size());  // practically certain with another seed
}

TEST(Trace, BurstsConcentrateVolume) {
  auto trace = generate_dropbox_trace();
  TraceStats stats = summarize(trace, 32);
  // The busiest bucket should hold far more than a uniform share.
  uint64_t busiest = 0;
  for (uint64_t b : stats.bucket_bytes) busiest = std::max(busiest, b);
  EXPECT_GT(busiest, stats.total_bytes / 32 * 3);
}

TEST(Trace, HugeFilesPlanted) {
  TraceParams params;
  auto trace = generate_dropbox_trace(params);
  int huge = 0;
  for (const auto& r : trace)
    if (r.size_bytes >= 100'000'000ULL) ++huge;
  EXPECT_EQ(huge, params.num_huge_files);
}

TEST(Trace, CsvRoundTrip) {
  TraceParams small;
  small.total_bytes = 50'000'000;
  small.num_huge_files = 1;
  small.huge_file_bytes = 10'000'000;
  auto trace = generate_dropbox_trace(small);
  auto parsed = from_csv(to_csv(trace));
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  ASSERT_EQ(parsed.value().size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(to_ms(parsed.value()[i].at), to_ms(trace[i].at), 0.01);
    EXPECT_EQ(parsed.value()[i].size_bytes, trace[i].size_bytes);
  }
}

TEST(Trace, CsvErrors) {
  EXPECT_FALSE(from_csv("header\nno-comma-here\n").is_ok());
  EXPECT_FALSE(from_csv("header\nabc,def\n").is_ok());
  auto empty = from_csv("at_ms,size_bytes\n");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(Trace, SummarizeEmpty) {
  TraceStats stats = summarize({});
  EXPECT_EQ(stats.num_records, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
}

// --- backup service -------------------------------------------------------------

struct BackupFixture {
  BackupFixture() : topo(ec2_topology()) {
    cluster = std::make_unique<SimCluster>(topo, sim);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      StabilizerOptions opts;
      opts.topology = topo;
      opts.self = n;
      stabs.push_back(
          std::make_unique<Stabilizer>(opts, cluster->transport(n)));
      stores.push_back(std::make_unique<store::LocalStore>());
      kvs.push_back(std::make_unique<kv::WanKV>(
          *stabs.back(), *stores.back(), [](const std::string& key) {
            return static_cast<NodeId>(key[0] - '1');  // "1/..." -> node 0
          }));
      services.push_back(std::make_unique<BackupService>(
          *kvs.back(), std::string(1, '1' + static_cast<char>(n))));
    }
  }
  BackupService& svc(NodeId n) { return *services.at(n); }

  Topology topo;
  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::vector<std::unique_ptr<Stabilizer>> stabs;
  std::vector<std::unique_ptr<store::LocalStore>> stores;
  std::vector<std::unique_ptr<kv::WanKV>> kvs;
  std::vector<std::unique_ptr<BackupService>> services;
};

TEST(StandardPredicates, GeneratedForEc2Topology) {
  Topology topo = ec2_topology();
  auto preds = BackupService::standard_predicates(topo, 0);
  ASSERT_EQ(preds.size(), 6u);
  EXPECT_EQ(preds["OneWNode"], "MAX($ALLWNODES-$MYWNODE)");
  EXPECT_EQ(preds["MajorityWNodes"],
            "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))");
  EXPECT_EQ(preds["AllWNodes"], "MIN($ALLWNODES-$MYWNODE)");
  // Region family covers exactly the three remote regions (Table III).
  EXPECT_EQ(preds["OneRegion"],
            "MAX(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))");
  EXPECT_EQ(preds["MajorityRegions"],
            "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))");
  EXPECT_EQ(preds["AllRegions"],
            "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))");
}

TEST(BackupService, UploadAndFetchEverywhere) {
  BackupFixture f;
  Bytes content = to_bytes("file-content-123");
  auto result = f.svc(0).backup_file("notes.txt", content);
  ASSERT_TRUE(result.is_ok()) << result.message();
  f.sim.run();
  for (NodeId n = 0; n < 8; ++n) {
    auto fetched = f.svc(n).fetch("1", "notes.txt");
    ASSERT_TRUE(fetched.has_value()) << "node " << n;
    EXPECT_EQ(*fetched, content);
  }
}

TEST(BackupService, StabilityOrderingAcrossPredicates) {
  BackupFixture f;
  ASSERT_TRUE(f.svc(0).register_standard_predicates());
  auto result = f.svc(0).backup_file("f.bin", Bytes(4096, 7));
  ASSERT_TRUE(result.is_ok());

  std::map<std::string, TimePoint> stable_at;
  for (const char* pred :
       {"OneWNode", "OneRegion", "MajorityRegions", "MajorityWNodes",
        "AllRegions", "AllWNodes"}) {
    ASSERT_TRUE(f.svc(0).wait_stable(result.value(), pred, [&, pred](SeqNum) {
      stable_at[pred] = f.sim.now();
    }));
  }
  f.sim.run();
  ASSERT_EQ(stable_at.size(), 6u);
  for (const char* pred :
       {"OneWNode", "OneRegion", "MajorityRegions", "MajorityWNodes",
        "AllRegions", "AllWNodes"})
    EXPECT_TRUE(f.svc(0).is_stable(result.value(), pred)) << pred;

  // Semantic ordering: weaker predicates stabilize no later than stronger.
  EXPECT_LE(stable_at["OneWNode"], stable_at["MajorityWNodes"]);
  EXPECT_LE(stable_at["MajorityWNodes"], stable_at["AllWNodes"]);
  EXPECT_LE(stable_at["OneRegion"], stable_at["MajorityRegions"]);
  EXPECT_LE(stable_at["MajorityRegions"], stable_at["AllRegions"]);
  // OneWNode (node 2, same region, 3.7ms RTT) beats OneRegion (23.29ms).
  EXPECT_LT(stable_at["OneWNode"], stable_at["OneRegion"]);
  // MajorityRegions (Oregon+Ohio) beats MajorityWNodes (needs N.Virginia).
  EXPECT_LT(stable_at["MajorityRegions"], stable_at["MajorityWNodes"]);
}

TEST(BackupService, LargeFileChunksAtEightKb) {
  BackupFixture f;
  auto result = f.svc(0).backup_file("big.iso", Bytes(), 1'000'000);
  ASSERT_TRUE(result.is_ok());
  EXPECT_GE(result.value().chunks, 1'000'000ULL / 8192);
}

TEST(BackupService, NonOwnerUploadRejected) {
  BackupFixture f;
  // Service 1's pool prefix "2" maps to node 1; try uploading via a service
  // whose prefix belongs to someone else.
  BackupService rogue(*f.kvs[0], "3");  // node 0 writing pool of node 2
  auto result = rogue.backup_file("x", to_bytes("y"));
  EXPECT_FALSE(result.is_ok());
}

TEST(BackupService, IsStableFalseBeforeAcks) {
  BackupFixture f;
  ASSERT_TRUE(f.svc(0).register_standard_predicates());
  auto result = f.svc(0).backup_file("f", to_bytes("x"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(f.svc(0).is_stable(result.value(), "AllWNodes"));
}

}  // namespace
}  // namespace stab::backup
