// Machine-model tests: hierarchy arithmetic, Blue Gene location codes,
// scope queries, and the round-trip property over every node.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "topology/topology.hpp"

namespace {

using namespace elsa::topo;

TEST(Topology, BlueGeneDimensions) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.total_nodes(), 4 * 2 * 8 * 16);
  EXPECT_EQ(t.racks(), 4);
  EXPECT_TRUE(t.is_hierarchical());
  EXPECT_EQ(t.scope_size(Scope::Node), 1);
  EXPECT_EQ(t.scope_size(Scope::NodeCard), 16);
  EXPECT_EQ(t.scope_size(Scope::Midplane), 128);
  EXPECT_EQ(t.scope_size(Scope::Rack), 256);
  EXPECT_EQ(t.scope_size(Scope::System), 1024);
}

TEST(Topology, RejectsBadDimensions) {
  EXPECT_THROW(Topology::bluegene(0, 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(Topology::cluster(0), std::invalid_argument);
  EXPECT_THROW(Topology::cluster(10, 0), std::invalid_argument);
}

TEST(Topology, LocationRoundTripEveryNode) {
  const auto t = Topology::bluegene(2, 2, 4, 8);
  for (std::int32_t n = 0; n < t.total_nodes(); ++n) {
    const Location loc = t.location_of(n);
    EXPECT_EQ(t.node_id(loc), n);
  }
}

TEST(Topology, LocationFieldsDecompose) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  const Location loc = t.location_of(1 * 256 + 1 * 128 + 3 * 16 + 5);
  EXPECT_EQ(loc.rack, 1);
  EXPECT_EQ(loc.midplane, 1);
  EXPECT_EQ(loc.nodecard, 3);
  EXPECT_EQ(loc.node, 5);
}

TEST(Topology, BlueGeneCodes) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.code(0), "R00-M0-N00-C:J00");
  EXPECT_EQ(t.code(t.total_nodes() - 1), "R03-M1-N07-C:J15");
  Location card;
  card.rack = 2;
  card.midplane = 1;
  card.nodecard = 7;
  EXPECT_EQ(t.code(card), "R02-M1-N07");
  Location mp;
  mp.rack = 0;
  mp.midplane = 1;
  EXPECT_EQ(t.code(mp), "R00-M1");
  EXPECT_EQ(t.code(Location{}), "SYSTEM");
}

TEST(Topology, ClusterCodes) {
  const auto t = Topology::cluster(891, 32, "tg-c");
  EXPECT_EQ(t.code(0), "tg-c0000");
  EXPECT_EQ(t.code(107), "tg-c0107");
  EXPECT_FALSE(t.is_hierarchical());
}

TEST(Topology, OutOfRangeThrows) {
  const auto t = Topology::bluegene(2, 2, 4, 8);
  EXPECT_THROW(t.location_of(-1), std::out_of_range);
  EXPECT_THROW(t.location_of(t.total_nodes()), std::out_of_range);
  Location partial;
  partial.rack = 0;
  EXPECT_THROW(t.node_id(partial), std::invalid_argument);
}

Location node_at(std::int32_t rack, std::int32_t midplane,
                 std::int32_t nodecard, std::int32_t node) {
  Location loc;
  loc.rack = rack;
  loc.midplane = midplane;
  loc.nodecard = nodecard;
  loc.node = node;
  return loc;
}

TEST(Topology, NodeIdRejectsEveryLevelOutOfRange) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.node_id(node_at(1, 0, 0, 0)), 256);
  EXPECT_EQ(t.node_id(node_at(3, 1, 7, 15)), t.total_nodes() - 1);
  // Each of these used to alias a node whose flat id is in range.
  EXPECT_THROW(t.node_id(node_at(0, 2, 0, 0)), std::out_of_range);   // 256
  EXPECT_THROW(t.node_id(node_at(0, 0, 8, 0)), std::out_of_range);   // 128
  EXPECT_THROW(t.node_id(node_at(0, 0, 0, 16)), std::out_of_range);  // 16
  EXPECT_THROW(t.node_id(node_at(4, 0, 0, 0)), std::out_of_range);
  // Fields whose product with their level's size overflows int32.
  EXPECT_THROW(t.node_id(node_at(INT32_MAX, 0, 0, 0)), std::out_of_range);
  EXPECT_THROW(t.node_id(node_at(0, INT32_MAX, 0, 0)), std::out_of_range);
  EXPECT_THROW(t.node_id(node_at(0, 0, INT32_MAX, 0)), std::out_of_range);
  EXPECT_THROW(t.node_id(node_at(0, 0, 0, INT32_MAX)), std::out_of_range);
}

TEST(Topology, ClusterNodeIdStopsAtThePartialLastRack) {
  const auto t = Topology::cluster(100, 32);  // the fourth rack holds 4 nodes
  EXPECT_EQ(t.node_id(node_at(3, 0, 3, 0)), 99);
  EXPECT_THROW(t.node_id(node_at(3, 0, 4, 0)), std::out_of_range);
  EXPECT_THROW(t.node_id(node_at(0, 0, 32, 0)), std::out_of_range);
  EXPECT_THROW(t.node_id(node_at(0, 0, 0, 1)), std::out_of_range);
}

TEST(Topology, NodePrefix) {
  EXPECT_EQ(Topology::cluster(891, 32, "tg-c").node_prefix(), "tg-c");
  EXPECT_EQ(Topology::cluster(64, 8, "node").node_prefix(), "node");
  EXPECT_EQ(Topology::bluegene(4, 2, 8, 16).node_prefix(), "");
}

TEST(Topology, CommonScopeHierarchy) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.common_scope(0, 0), Scope::Node);
  EXPECT_EQ(t.common_scope(0, 1), Scope::NodeCard);
  EXPECT_EQ(t.common_scope(0, 16), Scope::Midplane);
  EXPECT_EQ(t.common_scope(0, 128), Scope::Rack);
  EXPECT_EQ(t.common_scope(0, 256), Scope::System);
}

TEST(Topology, ClusterCommonScope) {
  const auto t = Topology::cluster(100, 10);
  EXPECT_EQ(t.common_scope(3, 3), Scope::Node);
  EXPECT_EQ(t.common_scope(3, 4), Scope::Rack);    // same rack of 10
  EXPECT_EQ(t.common_scope(3, 55), Scope::System); // different rack
}

TEST(Topology, ClassifySpread) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.classify_spread({}), Scope::None);
  const std::int32_t one[] = {42};
  EXPECT_EQ(t.classify_spread(one), Scope::Node);
  const std::int32_t card[] = {0, 3, 15};
  EXPECT_EQ(t.classify_spread(card), Scope::NodeCard);
  const std::int32_t mp[] = {0, 20, 100};
  EXPECT_EQ(t.classify_spread(mp), Scope::Midplane);
  const std::int32_t sys[] = {0, 900};
  EXPECT_EQ(t.classify_spread(sys), Scope::System);
}

TEST(Topology, NodesInScope) {
  const auto t = Topology::bluegene(4, 2, 8, 16);
  EXPECT_EQ(t.nodes_in_scope(37, Scope::Node),
            std::vector<std::int32_t>{37});
  const auto card = t.nodes_in_scope(37, Scope::NodeCard);
  ASSERT_EQ(card.size(), 16u);
  EXPECT_EQ(card.front(), 32);
  EXPECT_EQ(card.back(), 47);
  const auto sys = t.nodes_in_scope(0, Scope::System);
  EXPECT_EQ(sys.size(), static_cast<std::size_t>(t.total_nodes()));
}

TEST(Topology, ScopeToString) {
  EXPECT_STREQ(to_string(Scope::Midplane), "midplane");
  EXPECT_STREQ(to_string(Scope::None), "none");
}

}  // namespace
