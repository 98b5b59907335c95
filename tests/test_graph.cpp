// Unit tests for the batch dataflow graph: region discovery, graph queries,
// subgraph enumeration, convexity/independence, and contracted emission
// order.
#include <gtest/gtest.h>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "graph/regions.hpp"
#include "model/builder.hpp"
#include "support/error.hpp"

namespace hcg {
namespace {

Model fig4(int n = 8) { return resolved(benchmodels::paper_fig4_model(n)); }

std::vector<BatchRegion> fig4_regions(const Model& m) {
  return find_batch_regions(m, AllOpsSupport());
}

// ---------------------------------------------------------------------------
// Dataflow primitives
// ---------------------------------------------------------------------------

TEST(Dataflow, AddNodeValidatesOperands) {
  Dataflow g(16, 32);
  const int x = g.add_external({0, 0, DataType::kInt32});
  DfgNode good{BatchOp::kAbs, {ValueRef::external(x)}, DataType::kInt32, 0};
  EXPECT_EQ(g.add_node(good), 0);
  DfgNode bad{BatchOp::kAbs, {ValueRef::node(5)}, DataType::kInt32, 0};
  EXPECT_THROW(g.add_node(bad), InternalError);
  DfgNode bad2{BatchOp::kAbs, {ValueRef::external(9)}, DataType::kInt32, 0};
  EXPECT_THROW(g.add_node(bad2), InternalError);
}

TEST(Dataflow, ConsumersAndOutputs) {
  Dataflow g(16, 32);
  const int x = g.add_external({0, 0, DataType::kInt32});
  const int a = g.add_node({BatchOp::kAbs, {ValueRef::external(x)},
                            DataType::kInt32, 0});
  const int b = g.add_node({BatchOp::kNot, {ValueRef::node(a)},
                            DataType::kInt32, 1});
  g.mark_output(b);
  EXPECT_EQ(g.consumers(a), std::vector<int>{b});
  EXPECT_TRUE(g.consumers(b).empty());
  EXPECT_TRUE(g.is_output(b));
  EXPECT_FALSE(g.is_output(a));
  g.mark_output(b);  // idempotent
  EXPECT_EQ(g.outputs().size(), 1u);
}

TEST(Dataflow, OpCostOrdersExpensiveOpsFirst) {
  EXPECT_GT(op_cost(BatchOp::kDiv), op_cost(BatchOp::kMul));
  EXPECT_GT(op_cost(BatchOp::kMul), op_cost(BatchOp::kAdd));
  EXPECT_EQ(op_cost(BatchOp::kSqrt), op_cost(BatchOp::kRecp));
}

// ---------------------------------------------------------------------------
// Region discovery on the Figure 4 model
// ---------------------------------------------------------------------------

TEST(Regions, Fig4FormsOneRegionOfFiveNodes) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].graph.node_count(), 5);
  EXPECT_EQ(regions[0].graph.length(), 8);
  EXPECT_EQ(regions[0].graph.data_bit_width(), 32);
  // Externals: a, b, c, d.
  EXPECT_EQ(regions[0].graph.externals().size(), 4u);
  // Outputs: Shr and Add2 leave the region (feed Outports).
  EXPECT_EQ(regions[0].graph.outputs().size(), 2u);
}

TEST(Regions, Fig4GraphStructureMatchesPaper) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;

  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  const int add2 = r.node_of.at(m.find_actor("Add2"));

  // Sub feeds Add1, Mul and Add2 — three consumers.
  EXPECT_EQ(g.consumers(sub).size(), 3u);
  // Shr's operand is Add1 plus the immediate 1.
  ASSERT_EQ(g.node(shr).operands.size(), 2u);
  EXPECT_EQ(g.node(shr).operands[0], ValueRef::node(add1));
  EXPECT_EQ(g.node(shr).operands[1], ValueRef::immediate(1));
  // Add2 = Sub + Mul.
  EXPECT_EQ(g.node(add2).operands[0], ValueRef::node(sub));
  EXPECT_EQ(g.node(add2).operands[1], ValueRef::node(mul));
}

TEST(Regions, TopLeftNodeFollowsReadiness) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const Dataflow& g = regions[0].graph;
  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  // First ready node is Sub (the only node with no node-operands at start
  // that precedes the others in firing order).
  const int first = g.top_left_node(mapped);
  EXPECT_EQ(g.node(first).op, BatchOp::kSub);
  // After mapping everything, -1.
  std::fill(mapped.begin(), mapped.end(), true);
  EXPECT_EQ(g.top_left_node(mapped), -1);
}

TEST(Regions, ExtendSubgraphsFromSubMatchesPaperNarrative) {
  // Paper: "three subgraphs will be extended from the Sub node ... which are
  // Sub-Mul, Sub-Add and Sub" (with max 2 nodes).
  Model m = fig4();
  auto regions = fig4_regions(m);
  const Dataflow& g = regions[0].graph;
  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  const int sub = g.top_left_node(mapped);

  auto subgraphs = g.extend_subgraphs(sub, mapped, 2);
  // Exactly the paper's three: {Sub, Mul}, {Sub, Add1} and {Sub} —
  // {Sub, Add2} is rejected as non-convex (the path Sub -> Mul -> Add2
  // re-enters through the non-member Mul).
  EXPECT_EQ(subgraphs.size(), 3u);
  int singletons = 0, pairs = 0;
  for (const auto& s : subgraphs) {
    if (s.size() == 1) ++singletons;
    if (s.size() == 2) ++pairs;
    // A unique sink sits last; multi-sink candidates report -1 and are
    // discarded later by the interior-privacy check.
    const int sink = g.sink_of(s);
    EXPECT_TRUE(sink == s.back() || sink == -1);
  }
  EXPECT_EQ(singletons, 1);
  EXPECT_EQ(pairs, 2);
  // Cost ordering: multi-node subgraphs come before the singleton.
  EXPECT_GT(subgraphs.front().size(), 1u);
  EXPECT_EQ(subgraphs.back().size(), 1u);
}

TEST(Regions, InteriorPrivacyRejectsFanoutFusion) {
  // {Sub, Mul}: Sub's value is also needed by Add1 and Add2 outside, so the
  // pair cannot be fused into one instruction.
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  EXPECT_FALSE(g.interior_values_private({sub, mul}));
  // {Mul, Add2} is fine: Mul feeds only Add2.
  const int add2 = r.node_of.at(m.find_actor("Add2"));
  EXPECT_TRUE(g.interior_values_private({mul, add2}));
}

TEST(Regions, IndependenceRequiresMappedExternalsOnly) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));

  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  // {Add1, Shr} depends on Sub, which is not yet generated.
  EXPECT_FALSE(g.is_independent({add1, shr}, mapped));
  mapped[static_cast<size_t>(sub)] = true;
  EXPECT_TRUE(g.is_independent({add1, shr}, mapped));
}

TEST(Regions, ConvexityDetectsReentrantPaths) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  const int add2 = r.node_of.at(m.find_actor("Add2"));

  // {Sub, Add2} has a path Sub -> Mul -> Add2 through the non-member Mul.
  EXPECT_FALSE(g.is_convex({sub, add2}));
  EXPECT_TRUE(g.is_convex({sub, mul, add2}));
  EXPECT_TRUE(g.is_convex({add1, shr}));
}

// ---------------------------------------------------------------------------
// Region grouping rules
// ---------------------------------------------------------------------------

TEST(Regions, DifferentLengthsSplitRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({8}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Abs", {y});
  b.outport("oa", a);
  b.outport("oc", c);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  EXPECT_EQ(regions.size(), 2u);
}

TEST(Regions, DifferentBitWidthsSplitRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kInt16, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Cast", {a}, {{"to", "i32"}});  // width change
  PortRef d = b.actor("d", "Abs", {c});
  b.outport("o", d);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  // The widening Cast cannot join either side; a and d are separate regions.
  for (const auto& r : regions) {
    for (ActorId id : r.actors) {
      EXPECT_NE(m.actor(id).type(), "Cast");
    }
  }
  EXPECT_EQ(regions.size(), 2u);
}

TEST(Regions, SameWidthCastJoinsRegion) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Cast", {a}, {{"to", "i32"}});  // 32 -> 32 bits
  PortRef d = b.actor("d", "BitNot", {c});
  b.outport("o", d);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].actors.size(), 3u);
}

TEST(Regions, UnsupportedOpsAreExcluded) {
  class NoMul final : public OpSupport {
   public:
    bool supports(BatchOp op, DataType in, DataType out) const override {
      return op != BatchOp::kMul && AllOpsSupport().supports(op, in, out);
    }
  };
  Model m = resolved(benchmodels::fir_model(64));  // Mul then Add
  auto regions = find_batch_regions(m, NoMul());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(m.actor(regions[0].actors[0]).type(), "Add");
}

TEST(Regions, ScalarActorsNeverJoinRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));  // scalar
  PortRef a = b.actor("a", "Abs", {x});
  b.outport("o", a);
  Model m = resolved(b.take());
  EXPECT_TRUE(find_batch_regions(m, AllOpsSupport()).empty());
}

TEST(Regions, NonConvexComponentIsSplit) {
  // batch -> intensive -> batch, where the two batch actors are also wired
  // directly: one connected component whose fusion would trap the DCT.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef t = b.actor("t", "DCT", {a});
  PortRef s = b.actor("s", "Add", {a, t});
  b.outport("o", s);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  // 'a' and 's' must end up in different regions despite being connected.
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_NO_THROW(emission_order(m, regions));
}

// ---------------------------------------------------------------------------
// Emission order
// ---------------------------------------------------------------------------

TEST(EmissionOrder, RegionsEmitAfterProducersBeforeConsumers) {
  Model m = resolved(benchmodels::highpass_model(64));
  auto regions = find_batch_regions(m, AllOpsSupport());
  ASSERT_EQ(regions.size(), 1u);
  auto order = emission_order(m, regions);

  int region_pos = -1, inport_pos = -1, outport_pos = -1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i].region == 0) region_pos = static_cast<int>(i);
    if (order[i].actor == m.find_actor("x")) inport_pos = static_cast<int>(i);
    if (order[i].actor == m.find_actor("y")) outport_pos = static_cast<int>(i);
  }
  ASSERT_NE(region_pos, -1);
  EXPECT_LT(inport_pos, region_pos);
  EXPECT_GT(outport_pos, region_pos);
}

TEST(EmissionOrder, CoversEveryActorExactlyOnce) {
  Model m = resolved(benchmodels::paper_fig4_model(16));
  auto regions = find_batch_regions(m, AllOpsSupport());
  auto order = emission_order(m, regions);
  int actors_covered = 0;
  for (const EmissionItem& item : order) {
    if (item.actor != kNoActor) {
      ++actors_covered;
    } else {
      actors_covered += static_cast<int>(
          regions[static_cast<size_t>(item.region)].actors.size());
    }
  }
  EXPECT_EQ(actors_covered, m.actor_count());
}

TEST(EmissionOrder, SmallestReadyItemGoesFirst) {
  // Items are numbered regions first, then the other actors by id; among
  // the items whose producers are all emitted, the smallest goes next.
  // The UnitDelay's output is no dependency, so the region reading it waits
  // only for its Inport, and x fans out to two regions.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef t = b.actor("t", "DCT", {a});
  PortRef c = b.actor("c", "Abs", {t});
  PortRef d = b.actor("d", "UnitDelay", {c},
                      {{"dtype", "f32"}, {"shape", "16"}});
  PortRef e = b.actor("e", "Add", {d, y});
  PortRef f = b.actor("f", "Abs", {x});
  b.outport("o1", c);
  b.outport("o2", e);
  b.outport("o3", f);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  auto order = emission_order(m, regions);

  std::string names;
  for (const EmissionItem& item : order) {
    if (!names.empty()) names += " ";
    if (item.actor != kNoActor) {
      names += m.actor(item.actor).name();
      continue;
    }
    names += "{";
    for (ActorId id : regions[static_cast<size_t>(item.region)].actors) {
      if (names.back() != '{') names += ",";
      names += m.actor(id).name();
    }
    names += "}";
  }
  // y waits behind the regions x makes ready; o2, ready once {e} is out,
  // waits behind t, {c} and d, which carry smaller numbers.
  EXPECT_EQ(names, "x {a} {f} y {e} t {c} d o1 o2 o3");
}

}  // namespace
}  // namespace hcg
