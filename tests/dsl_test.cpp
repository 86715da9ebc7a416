// DSL tests: lexer, parser, analyzer expansion, evaluation semantics, and
// differential property tests across the three execution strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "config/topology.hpp"
#include "dsl/parser.hpp"
#include "dsl/predicate.hpp"
#include "dsl/shard_ref.hpp"
#include "dsl/token.hpp"

namespace stab::dsl {
namespace {

// --- helpers -----------------------------------------------------------------

/// Simple ack matrix for tests.
class TestAcks : public AckSource {
 public:
  void set(StabilityTypeId type, NodeId node, int64_t seq) {
    auto& r = rows_[type];
    if (r.size() <= node) r.resize(node + 1, kNoSeq);
    r[node] = seq;
  }
  std::span<const int64_t> row(StabilityTypeId type) const override {
    auto it = rows_.find(type);
    if (it == rows_.end()) return {};
    return it->second;
  }

 private:
  std::map<StabilityTypeId, std::vector<int64_t>> rows_;
};

/// Auto-registering type resolver: received=0, persisted=1, then on demand.
struct TypeRegistry {
  std::map<std::string, StabilityTypeId> ids{{"received", 0}, {"persisted", 1}};
  std::optional<StabilityTypeId> operator()(const std::string& name) {
    auto it = ids.find(name);
    if (it != ids.end()) return it->second;
    StabilityTypeId id = static_cast<StabilityTypeId>(ids.size());
    ids.emplace(name, id);
    return id;
  }
  std::string name_of(StabilityTypeId id) const {
    for (const auto& [n, i] : ids)
      if (i == id) return n;
    return "?";
  }
};

PredicateContext make_ctx(const Topology& topo, NodeId self,
                          TypeRegistry& reg) {
  PredicateContext ctx;
  ctx.topology = &topo;
  ctx.self = self;
  ctx.resolve_type = [&reg](const std::string& n) { return reg(n); };
  return ctx;
}

// --- lexer ---------------------------------------------------------------------

TEST(Lexer, TokenizesAllKinds) {
  auto toks = lex("MAX($ALLWNODES-$MYWNODE), 42 ().+*/");
  ASSERT_TRUE(toks.is_ok()) << toks.message();
  const auto& v = toks.value();
  ASSERT_GE(v.size(), 10u);
  EXPECT_EQ(v[0].kind, TokKind::kIdent);
  EXPECT_EQ(v[0].text, "MAX");
  EXPECT_EQ(v[1].kind, TokKind::kLParen);
  EXPECT_EQ(v[2].kind, TokKind::kDollarRef);
  EXPECT_EQ(v[2].text, "ALLWNODES");
  EXPECT_EQ(v[3].kind, TokKind::kMinus);
  EXPECT_EQ(v[4].text, "MYWNODE");
  EXPECT_EQ(v.back().kind, TokKind::kEnd);
}

TEST(Lexer, IntegerValue) {
  auto toks = lex("123");
  ASSERT_TRUE(toks.is_ok());
  EXPECT_EQ(toks.value()[0].kind, TokKind::kInt);
  EXPECT_EQ(toks.value()[0].value, 123);
}

TEST(Lexer, BadCharacterReportsOffset) {
  auto toks = lex("MAX(%)");
  ASSERT_FALSE(toks.is_ok());
  EXPECT_NE(toks.message().find("offset 4"), std::string::npos);
}

TEST(Lexer, LoneDollarFails) {
  EXPECT_FALSE(lex("MAX($ )").is_ok());
}

TEST(Lexer, EmptyInputIsJustEnd) {
  auto toks = lex("");
  ASSERT_TRUE(toks.is_ok());
  ASSERT_EQ(toks.value().size(), 1u);
  EXPECT_EQ(toks.value()[0].kind, TokKind::kEnd);
}

// --- parser ----------------------------------------------------------------------

TEST(Parser, RoundTripsPaperPredicates) {
  // Every predicate that appears in the paper (§III-C, §IV, Table III).
  const char* predicates[] = {
      "MAX($ALLWNODES-$MYWNODE)",
      "MIN($ALLWNODES)",
      "KTH_MIN(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)",
      "KTH_MIN(SIZEOF($ALLWNODES)/2,$ALLWNODES)",
      "MIN(MIN($MYAZWNODES-$MYWNODE),MAX($ALLWNODES-$MYAZWNODES))",
      "MAX(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
      "MIN($ALLWNODES-$MYWNODE)",
  };
  for (const char* src : predicates) {
    auto ast = parse(src);
    ASSERT_TRUE(ast.is_ok()) << src << ": " << ast.message();
    // Re-parse the printed form; printing must be stable.
    std::string printed = to_dsl_string(*ast.value());
    auto ast2 = parse(printed);
    ASSERT_TRUE(ast2.is_ok()) << printed << ": " << ast2.message();
    EXPECT_EQ(to_dsl_string(*ast2.value()), printed) << src;
  }
}

TEST(Parser, AcceptsSpacedKthSpelling) {
  auto ast = parse("KTH MAX(2, $ALLWNODES)");  // the paper writes "KTH MAX"
  ASSERT_TRUE(ast.is_ok()) << ast.message();
  EXPECT_EQ(to_dsl_string(*ast.value()), "KTH_MAX(2,$ALLWNODES)");
}

TEST(Parser, SuffixOnParenthesizedSet) {
  auto ast = parse("MIN(($MYAZWNODES-$MYWNODE).verified)");
  ASSERT_TRUE(ast.is_ok()) << ast.message();
  EXPECT_NE(to_dsl_string(*ast.value()).find(".verified"), std::string::npos);
}

TEST(Parser, SuffixOnSingleNode) {
  auto ast = parse("MAX($3.persisted)");
  ASSERT_TRUE(ast.is_ok()) << ast.message();
}

TEST(Parser, WnodeAndAzVariables) {
  auto ast = parse("MAX($WNODE_Foo,$AZ_Wisc)");
  ASSERT_TRUE(ast.is_ok()) << ast.message();
  EXPECT_EQ(to_dsl_string(*ast.value()), "MAX($WNODE_Foo,$AZ_Wisc)");
}

TEST(Parser, RejectsGarbage) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("FOO($1)").is_ok());
  EXPECT_FALSE(parse("MAX").is_ok());
  EXPECT_FALSE(parse("MAX(").is_ok());
  EXPECT_FALSE(parse("MAX()").is_ok());
  EXPECT_FALSE(parse("MAX($1)extra").is_ok());
  EXPECT_FALSE(parse("MAX($1,)").is_ok());
  EXPECT_FALSE(parse("KTH_BOGUS(1,$1)").is_ok());
  EXPECT_FALSE(parse("$1").is_ok());  // top level must be a call
  EXPECT_FALSE(parse("MAX($WNODE_)").is_ok());
  EXPECT_FALSE(parse("MAX($AZ_)").is_ok());
  EXPECT_FALSE(parse("MAX($1.)").is_ok());
}

TEST(Parser, ArithmeticPrecedence) {
  auto ast = parse("KTH_MIN(1+2*3,$ALLWNODES)");
  ASSERT_TRUE(ast.is_ok());
  // (1+(2*3)) — verified via evaluation below in analyzer tests.
  EXPECT_EQ(to_dsl_string(*ast.value()), "KTH_MIN((1+(2*3)),$ALLWNODES)");
}

TEST(Parser, ErrorsCarryOffsets) {
  auto ast = parse("MAX($1,%%)");
  ASSERT_FALSE(ast.is_ok());
  EXPECT_NE(ast.message().find("offset"), std::string::npos);
}

// --- analyzer ---------------------------------------------------------------------

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() : topo_(ec2_topology()) {}
  Topology topo_;
  TypeRegistry reg_;
};

TEST_F(AnalyzerTest, ExpandsAllwnodesMinusMy) {
  // Fig 1's example: MAX($ALLWNODES-$MYWNODE) at node 1 expands to
  // MAX($2,...,$8).
  auto p = Predicate::compile("MAX($ALLWNODES-$MYWNODE)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok()) << p.message();
  EXPECT_EQ(p.value().expanded(), "MAX($2,$3,$4,$5,$6,$7,$8)");
}

TEST_F(AnalyzerTest, ExpandsMyAz) {
  auto p = Predicate::compile("MIN($MYAZWNODES-$MYWNODE)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok()) << p.message();
  EXPECT_EQ(p.value().expanded(), "MIN($2)");
  // At node 3 (index 2, North Virginia) the same source expands differently.
  auto p2 = Predicate::compile("MIN($MYAZWNODES-$MYWNODE)",
                               make_ctx(topo_, 2, reg_));
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(p2.value().expanded(), "MIN($4,$5,$6)");
}

TEST_F(AnalyzerTest, ExpandsAzVariables) {
  auto p = Predicate::compile("MAX(MAX($AZ_Oregon),MAX($AZ_Ohio))",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok()) << p.message();
  EXPECT_EQ(p.value().expanded(), "MAX(MAX($7),MAX($8))");
}

TEST_F(AnalyzerTest, FoldsSizeofArithmetic) {
  auto p = Predicate::compile("KTH_MIN(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok()) << p.message();
  // SIZEOF = 8 -> 8/2+1 = 5
  EXPECT_EQ(p.value().expanded(),
            "KTH_MIN(5,$1,$2,$3,$4,$5,$6,$7,$8)");
}

TEST_F(AnalyzerTest, ArithmeticPrecedenceFolds) {
  auto p = Predicate::compile("KTH_MIN(1+2*3,$ALLWNODES)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().expanded().substr(0, 10), "KTH_MIN(7,");
}

TEST_F(AnalyzerTest, SuffixResolvesTypes) {
  auto p = Predicate::compile("MIN($ALLWNODES.persisted)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok());
  ASSERT_EQ(p.value().referenced_types().size(), 1u);
  EXPECT_EQ(p.value().referenced_types()[0], 1u);
  EXPECT_NE(p.value().expanded([&](StabilityTypeId t) { return reg_.name_of(t); })
                .find(".persisted"),
            std::string::npos);
}

TEST_F(AnalyzerTest, WnodeByNameAndIndexAgree) {
  auto by_name =
      Predicate::compile("MAX($WNODE_7)", make_ctx(topo_, 0, reg_));
  auto by_index = Predicate::compile("MAX($7)", make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(by_name.is_ok());
  ASSERT_TRUE(by_index.is_ok());
  EXPECT_EQ(by_name.value().expanded(), by_index.value().expanded());
}

TEST_F(AnalyzerTest, ReferencedNodes) {
  auto p = Predicate::compile("MIN(MAX($AZ_Oregon),MAX($AZ_Ohio))",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().referenced_nodes(), (std::vector<NodeId>{6, 7}));
  EXPECT_TRUE(p.value().references_node(6));
  EXPECT_FALSE(p.value().references_node(0));
}

TEST_F(AnalyzerTest, Errors) {
  auto ctx = make_ctx(topo_, 0, reg_);
  EXPECT_FALSE(Predicate::compile("MAX($9)", ctx).is_ok());       // only 8 nodes
  EXPECT_FALSE(Predicate::compile("MAX($0)", ctx).is_ok());       // 1-based
  EXPECT_FALSE(Predicate::compile("MAX($WNODE_X)", ctx).is_ok()); // unknown
  EXPECT_FALSE(Predicate::compile("MAX($AZ_Mars)", ctx).is_ok()); // unknown az
  EXPECT_FALSE(
      Predicate::compile("KTH_MIN(1/0,$ALLWNODES)", ctx).is_ok());  // div 0
  EXPECT_FALSE(
      Predicate::compile("KTH_MIN($ALLWNODES)", ctx).is_ok());  // missing k
  EXPECT_FALSE(Predicate::compile("KTH_MIN($1,$ALLWNODES)", ctx)
                   .is_ok());  // k must be arithmetic
}

TEST_F(AnalyzerTest, UnknownTypeRejected) {
  PredicateContext ctx;
  ctx.topology = &topo_;
  ctx.self = 0;
  ctx.resolve_type = [](const std::string& n) -> std::optional<StabilityTypeId> {
    if (n == "received") return 0;
    return std::nullopt;
  };
  EXPECT_FALSE(Predicate::compile("MIN($ALLWNODES.verified)", ctx).is_ok());
  EXPECT_TRUE(Predicate::compile("MIN($ALLWNODES)", ctx).is_ok());
}

// --- evaluation semantics -------------------------------------------------------

class EvalTest : public ::testing::TestWithParam<EvalMode> {
 protected:
  EvalTest() : topo_(ec2_topology()) {}

  int64_t eval(const std::string& src, const TestAcks& acks, NodeId self = 0) {
    auto p = Predicate::compile(src, make_ctx(topo_, self, reg_), GetParam());
    EXPECT_TRUE(p.is_ok()) << src << ": " << p.message();
    return p.value().eval(acks);
  }

  Topology topo_;
  TypeRegistry reg_;
};

INSTANTIATE_TEST_SUITE_P(AllModes, EvalTest,
                         ::testing::Values(EvalMode::kInterpreter,
                                           EvalMode::kBytecode,
                                           EvalMode::kSpecialized),
                         [](const auto& info) {
                           switch (info.param) {
                             case EvalMode::kInterpreter:
                               return "Interpreter";
                             case EvalMode::kBytecode:
                               return "Bytecode";
                             default:
                               return "Specialized";
                           }
                         });

TEST_P(EvalTest, Fig1Example) {
  // Fig 1: node acks are 33,25,19,21,23,28 for nodes 1..6 (we extend with
  // nodes 7,8); MAX($ALLWNODES-$MYWNODE) at node 1 returns the highest
  // remote ack.
  TestAcks acks;
  int64_t vals[] = {33, 25, 19, 21, 23, 28, 17, 11};
  for (NodeId n = 0; n < 8; ++n) acks.set(0, n, vals[n]);
  EXPECT_EQ(eval("MAX($ALLWNODES-$MYWNODE)", acks), 28);
  EXPECT_EQ(eval("MIN($ALLWNODES)", acks), 11);
  EXPECT_EQ(eval("MAX($ALLWNODES)", acks), 33);
}

TEST_P(EvalTest, KthSelection) {
  TestAcks acks;
  int64_t vals[] = {80, 70, 60, 50, 40, 30, 20, 10};
  for (NodeId n = 0; n < 8; ++n) acks.set(0, n, vals[n]);
  // majority (5) of all 8 nodes, k-th smallest from the top
  EXPECT_EQ(eval("KTH_MIN(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)", acks), 50);
  EXPECT_EQ(eval("KTH_MAX(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)", acks), 40);
  EXPECT_EQ(eval("KTH_MAX(1,$ALLWNODES)", acks), 80);
  EXPECT_EQ(eval("KTH_MIN(1,$ALLWNODES)", acks), 10);
  EXPECT_EQ(eval("KTH_MAX(8,$ALLWNODES)", acks), 10);
}

TEST_P(EvalTest, KthOutOfRangeIsNoSeq) {
  TestAcks acks;
  for (NodeId n = 0; n < 8; ++n) acks.set(0, n, 5);
  EXPECT_EQ(eval("KTH_MAX(9,$ALLWNODES)", acks), kNoSeq);
  EXPECT_EQ(eval("KTH_MAX(0,$ALLWNODES)", acks), kNoSeq);
  EXPECT_EQ(eval("KTH_MIN(100,$ALLWNODES)", acks), kNoSeq);
}

TEST_P(EvalTest, UnackedNodesReadAsNoSeq) {
  TestAcks acks;  // empty: nothing acked anywhere
  EXPECT_EQ(eval("MIN($ALLWNODES)", acks), kNoSeq);
  EXPECT_EQ(eval("MAX($ALLWNODES)", acks), kNoSeq);
  acks.set(0, 3, 42);
  EXPECT_EQ(eval("MAX($ALLWNODES)", acks), 42);
  EXPECT_EQ(eval("MIN($ALLWNODES)", acks), kNoSeq);
}

TEST_P(EvalTest, RegionPredicatesFromTableThree) {
  TestAcks acks;
  // nva(3,4,5,6) = 10,20,30,40 ; oregon(7) = 25; ohio(8) = 5
  acks.set(0, 2, 10);
  acks.set(0, 3, 20);
  acks.set(0, 4, 30);
  acks.set(0, 5, 40);
  acks.set(0, 6, 25);
  acks.set(0, 7, 5);
  const std::string nva = "MAX($AZ_North_Virginia)";
  // OneRegion: best remote region = max(40, 25, 5) = 40
  EXPECT_EQ(eval("MAX(" + nva + ",MAX($AZ_Oregon),MAX($AZ_Ohio))", acks), 40);
  // MajorityRegions: 2nd best = 25
  EXPECT_EQ(
      eval("KTH_MAX(2," + nva + ",MAX($AZ_Oregon),MAX($AZ_Ohio))", acks), 25);
  // AllRegions: worst = 5
  EXPECT_EQ(eval("MIN(" + nva + ",MAX($AZ_Oregon),MAX($AZ_Ohio))", acks), 5);
}

TEST_P(EvalTest, MixedSuffixes) {
  TestAcks acks;
  for (NodeId n = 0; n < 8; ++n) {
    acks.set(0, n, 100);  // received
    acks.set(1, n, 50 + n);  // persisted
  }
  EXPECT_EQ(eval("MIN($ALLWNODES.persisted)", acks), 50);
  EXPECT_EQ(eval("MIN(MIN($ALLWNODES),MIN($ALLWNODES.persisted))", acks), 50);
}

TEST_P(EvalTest, AzReplicationGoalFromPaperSectionFour) {
  // MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES)):
  // fully replicated in my AZ, and at least one remote-region copy.
  const std::string pred =
      "MIN(MIN($MYAZWNODES-$MYWNODE),MAX($ALLWNODES-$MYAZWNODES))";
  TestAcks acks;
  acks.set(0, 1, 7);  // az peer (node 2) has 7
  // no remote copies yet -> frontier is kNoSeq
  EXPECT_EQ(eval(pred, acks), kNoSeq);
  acks.set(0, 6, 3);  // oregon has 3
  EXPECT_EQ(eval(pred, acks), 3);
  acks.set(0, 7, 9);  // ohio has 9: remote part = max(...,9)=9, az part = 7
  EXPECT_EQ(eval(pred, acks), 7);
}

TEST_P(EvalTest, ScalarIntArgsAllowed) {
  TestAcks acks;
  acks.set(0, 1, 5);
  EXPECT_EQ(eval("MAX($2,3)", acks), 5);
  EXPECT_EQ(eval("MIN($2,3)", acks), 3);
}

// --- binding-cell skip boundaries (Program::update_cannot_raise) ------------

TEST_F(AnalyzerTest, SkipNeedsOldStrictlyAboveFrontier) {
  auto ctx = make_ctx(topo_, 0, reg_);
  for (const char* src :
       {"MIN($ALLWNODES)", "KTH_MIN(3,$ALLWNODES)", "KTH_MAX(2,$ALLWNODES)",
        "MAX(MAX($AZ_North_Virginia),MAX($AZ_Oregon))",
        "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
        "MIN(MAX($AZ_North_Virginia),MIN($ALLWNODES-$MYWNODE))"}) {
    auto p = Predicate::compile(src, ctx);
    ASSERT_TRUE(p.is_ok()) << src;
    ASSERT_TRUE(p.value().specialized()) << src;
    // old == frontier: the cell may be the binding one, so it must eval.
    EXPECT_FALSE(p.value().eval_skippable(10, 12, 10)) << src;
    // Crossing the frontier from below must eval.
    EXPECT_FALSE(p.value().eval_skippable(3, 11, 10)) << src;
    // Bound rule: the new value does not exceed the frontier.
    EXPECT_TRUE(p.value().eval_skippable(3, 10, 10)) << src;
    // Binding rule: old > frontier, on every shape (KTH_MAX and
    // OP-of-reduced included).
    EXPECT_TRUE(p.value().eval_skippable(11, 20, 10)) << src;
  }
}

TEST_F(AnalyzerTest, SkipAtEqualityWouldLoseAnAdvance) {
  // Witness for the boundary: with the binding cell at the frontier, raising
  // it moves the frontier, so old == frontier cannot be a skip.
  auto p = Predicate::compile("MIN($ALLWNODES)", make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(p.is_ok());
  TestAcks acks;
  for (NodeId n = 0; n < 8; ++n) acks.set(0, n, n == 0 ? 10 : 20);
  ASSERT_EQ(p.value().eval(acks), 10);
  acks.set(0, 0, 15);
  EXPECT_EQ(p.value().eval(acks), 15);
  // And a KTH_MAX cell strictly above the frontier never moves it.
  auto k = Predicate::compile("KTH_MAX(3,$ALLWNODES)",
                              make_ctx(topo_, 0, reg_));
  ASSERT_TRUE(k.is_ok());
  for (NodeId n = 0; n < 8; ++n) acks.set(0, n, 10 * (n + 1));
  ASSERT_EQ(k.value().eval(acks), 60);
  EXPECT_TRUE(k.value().eval_skippable(70, 100, 60));
  acks.set(0, 6, 100);
  EXPECT_EQ(k.value().eval(acks), 60);
}

TEST_F(AnalyzerTest, NonSpecializedModesNeverSkip) {
  auto ctx = make_ctx(topo_, 0, reg_);
  for (EvalMode mode : {EvalMode::kInterpreter, EvalMode::kBytecode}) {
    auto p = Predicate::compile("KTH_MAX(2,$ALLWNODES)", ctx, mode);
    ASSERT_TRUE(p.is_ok());
    EXPECT_FALSE(p.value().eval_skippable(11, 20, 10));
    EXPECT_FALSE(p.value().eval_skippable(3, 10, 10));
  }
}

TEST(EvalProperty, KthSelectionMatchesSort) {
  // Every k, in and out of range, agrees with a full sort, duplicates
  // included.
  for (size_t n : {1u, 5u, 8u, 40u}) {
    Topology topo;
    for (size_t i = 0; i < n; ++i)
      topo.add_node("n" + std::to_string(i), "az" + std::to_string(i % 3));
    TypeRegistry reg;
    Rng rng(n);
    TestAcks acks;
    std::vector<int64_t> vals;
    for (NodeId i = 0; i < n; ++i) {
      vals.push_back(rng.next_range(-1, 12));
      acks.set(0, i, vals.back());
    }
    std::vector<int64_t> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    for (EvalMode mode : {EvalMode::kInterpreter, EvalMode::kBytecode,
                          EvalMode::kSpecialized}) {
      for (size_t k = 0; k <= n + 1; ++k) {
        auto ctx = make_ctx(topo, 0, reg);
        auto mn = Predicate::compile(
            "KTH_MIN(" + std::to_string(k) + ",$ALLWNODES)", ctx, mode);
        auto mx = Predicate::compile(
            "KTH_MAX(" + std::to_string(k) + ",$ALLWNODES)", ctx, mode);
        ASSERT_TRUE(mn.is_ok() && mx.is_ok());
        const bool in_range = k >= 1 && k <= n;
        EXPECT_EQ(mn.value().eval(acks), in_range ? sorted[k - 1] : kNoSeq)
            << "n=" << n << " k=" << k;
        EXPECT_EQ(mx.value().eval(acks), in_range ? sorted[n - k] : kNoSeq)
            << "n=" << n << " k=" << k;
      }
    }
  }
}

// Differential property test: all three modes agree on randomized predicates
// and ack tables.
TEST(EvalProperty, ModesAgreeOnRandomPredicates) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  Rng rng(2024);
  const char* sets[] = {"$ALLWNODES",
                        "$MYAZWNODES",
                        "$ALLWNODES-$MYWNODE",
                        "$ALLWNODES-$MYAZWNODES",
                        "$AZ_North_Virginia",
                        "$AZ_Oregon",
                        "$AZ_Ohio",
                        "$MYAZWNODES-$MYWNODE",
                        "$3",
                        "$7"};
  const char* suffixes[] = {"", ".persisted", ".verified"};
  const char* ops[] = {"MAX", "MIN", "KTH_MAX", "KTH_MIN"};

  std::function<std::string(int)> gen_call = [&](int depth) {
    std::ostringstream oss;
    const char* op = ops[rng.next_below(4)];
    bool kth = op[0] == 'K';
    oss << op << "(";
    if (kth) oss << 1 + rng.next_below(9) << ",";
    int nargs = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < nargs; ++i) {
      if (i) oss << ",";
      if (depth < 2 && rng.next_bool(0.3)) {
        oss << gen_call(depth + 1);
      } else {
        std::string set = sets[rng.next_below(10)];
        std::string suffix = suffixes[rng.next_below(3)];
        if (!suffix.empty() && set.find('-') != std::string::npos)
          oss << "(" << set << ")" << suffix;
        else
          oss << set << suffix;
      }
    }
    oss << ")";
    return oss.str();
  };

  int compiled = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string src = gen_call(0);
    auto ctx = make_ctx(topo, static_cast<NodeId>(rng.next_below(8)), reg);
    auto pi = Predicate::compile(src, ctx, EvalMode::kInterpreter);
    auto pb = Predicate::compile(src, ctx, EvalMode::kBytecode);
    auto ps = Predicate::compile(src, ctx, EvalMode::kSpecialized);
    ASSERT_TRUE(pi.is_ok()) << src << ": " << pi.message();
    ASSERT_TRUE(pb.is_ok() && ps.is_ok());
    ++compiled;

    TestAcks acks;
    for (StabilityTypeId t = 0; t < 3; ++t)
      for (NodeId n = 0; n < 8; ++n)
        if (rng.next_bool(0.8))
          acks.set(t, n, rng.next_range(-1, 100));
    int64_t vi = pi.value().eval(acks);
    int64_t vb = pb.value().eval(acks);
    int64_t vs = ps.value().eval(acks);
    EXPECT_EQ(vi, vb) << src;
    EXPECT_EQ(vi, vs) << src;
  }
  EXPECT_EQ(compiled, 300);
}

// Property: predicate frontier is monotonic under monotonic ack updates.
TEST(EvalProperty, FrontierMonotonicUnderMonotonicAcks) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  Rng rng(7);
  const char* preds[] = {
      "MAX($ALLWNODES-$MYWNODE)",
      "MIN($ALLWNODES-$MYWNODE)",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "MIN(MIN($MYAZWNODES-$MYWNODE),MAX($ALLWNODES-$MYAZWNODES))",
  };
  for (const char* src : preds) {
    auto p = Predicate::compile(src, make_ctx(topo, 0, reg));
    ASSERT_TRUE(p.is_ok()) << p.message();
    TestAcks acks;
    std::vector<int64_t> current(8, kNoSeq);
    int64_t last = p.value().eval(acks);
    for (int step = 0; step < 500; ++step) {
      NodeId n = static_cast<NodeId>(rng.next_below(8));
      current[n] += rng.next_range(0, 5);
      acks.set(0, n, current[n]);
      int64_t now = p.value().eval(acks);
      ASSERT_GE(now, last) << src << " regressed at step " << step;
      last = now;
    }
  }
}

TEST(Specialization, TableThreePredicatesAreSpecialized) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  const char* preds[] = {
      "MAX($ALLWNODES-$MYWNODE)",
      "MIN($ALLWNODES-$MYWNODE)",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
      "MAX(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
  };
  for (const char* src : preds) {
    auto p = Predicate::compile(src, make_ctx(topo, 0, reg));
    ASSERT_TRUE(p.is_ok());
    EXPECT_TRUE(p.value().specialized()) << src;
  }
}

TEST(Specialization, DeepNestingFallsBackToBytecode) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  auto p = Predicate::compile(
      "MIN(MIN($MYAZWNODES-$MYWNODE),MAX($ALLWNODES-$MYAZWNODES),"
      "KTH_MAX(2,$ALLWNODES))",
      make_ctx(topo, 0, reg));
  ASSERT_TRUE(p.is_ok());
  EXPECT_FALSE(p.value().specialized());
  // ... but still evaluates correctly (covered by the differential test).
}

// Robustness: random token soup must produce clean errors, never crashes
// or hangs — the DSL compiles untrusted runtime input (register_predicate
// is a public API).
TEST(ParserRobustness, RandomTokenSoupNeverCrashes) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  auto ctx = make_ctx(topo, 0, reg);
  Rng rng(0xf00d);
  const char* fragments[] = {"MAX",     "MIN",   "KTH_MAX", "KTH_MIN",
                             "SIZEOF",  "(",     ")",       ",",
                             "$ALLWNODES", "$MYWNODE", "$1", "$99",
                             "$AZ_Oregon", "$WNODE_3", "-", "+",
                             "*",       "/",     ".",       "received",
                             "persisted", "7",   "0",       "$",
                             "$AZ_",    "KTH"};
  int compiled = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string src;
    int len = 1 + static_cast<int>(rng.next_below(14));
    for (int i = 0; i < len; ++i) {
      src += fragments[rng.next_below(std::size(fragments))];
      if (rng.next_bool(0.3)) src += " ";
    }
    auto p = Predicate::compile(src, ctx);  // must not crash/throw/hang
    if (p.is_ok()) {
      ++compiled;
      // Anything that compiles must also evaluate safely.
      TestAcks acks;
      acks.set(0, 1, 5);
      (void)p.value().eval(acks);
    } else {
      ++rejected;
      EXPECT_FALSE(p.message().empty());
    }
  }
  EXPECT_EQ(compiled + rejected, 2000);
  EXPECT_GT(rejected, 100);  // the soup is mostly garbage
}

// Robustness: random byte strings through the lexer.
TEST(LexerRobustness, RandomBytesNeverCrash) {
  Rng rng(0xbeef);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string src;
    int len = static_cast<int>(rng.next_below(40));
    for (int i = 0; i < len; ++i)
      src += static_cast<char>(rng.next_range(1, 127));
    auto toks = lex(src);  // ok or error, never UB
    if (toks.is_ok()) {
      EXPECT_EQ(toks.value().back().kind, TokKind::kEnd);
    }
  }
}

// --- sharded stability suffix (shard_ref.hpp, DESIGN.md §9) -------------------

TEST(ShardRef, PlainKeyIsCombinedScope) {
  auto r = parse_shard_ref("checkout");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->base, "checkout");
  EXPECT_EQ(r->scope, ShardKeyRef::Scope::kCombined);
  EXPECT_EQ(shard_ref_string(*r), "checkout");
}

TEST(ShardRef, AtAllIsExplicitCombinedSpelling) {
  auto r = parse_shard_ref("checkout@all");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->base, "checkout");
  EXPECT_EQ(r->scope, ShardKeyRef::Scope::kCombined);
}

TEST(ShardRef, NumericSuffixScopesOneShard) {
  auto r = parse_shard_ref("checkout@3");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->base, "checkout");
  EXPECT_EQ(r->scope, ShardKeyRef::Scope::kOne);
  EXPECT_EQ(r->shard, 3u);
  EXPECT_EQ(shard_ref_string(*r), "checkout@3");

  auto max = parse_shard_ref("k@65535");  // the wire envelope's u16 ceiling
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->shard, 65535u);
}

TEST(ShardRef, MalformedReferencesAreRejected) {
  EXPECT_FALSE(parse_shard_ref("").has_value());
  EXPECT_FALSE(parse_shard_ref("k@").has_value());
  EXPECT_FALSE(parse_shard_ref("@3").has_value());
  EXPECT_FALSE(parse_shard_ref("k@x").has_value());
  EXPECT_FALSE(parse_shard_ref("k@1x").has_value());
  EXPECT_FALSE(parse_shard_ref("k@@2").has_value());
  EXPECT_FALSE(parse_shard_ref("a@1@2").has_value());
  EXPECT_FALSE(parse_shard_ref("k@65536").has_value());  // beyond u16
  EXPECT_FALSE(parse_shard_ref("k@ALL").has_value());    // case-sensitive
}

TEST(CompileMeta, TracksCompileTimeAndSource) {
  Topology topo = ec2_topology();
  TypeRegistry reg;
  auto p = Predicate::compile("MIN($ALLWNODES)", make_ctx(topo, 0, reg));
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().source(), "MIN($ALLWNODES)");
  EXPECT_GT(p.value().compile_time().count(), 0);
}

}  // namespace
}  // namespace stab::dsl
