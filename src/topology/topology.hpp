// Machine model: the component hierarchy of a large HPC system.
//
// The paper's location-correlation module (§III.D) reasons about how fault
// syndromes spread through the physical hierarchy (Blue Gene: nodes live on
// node cards, node cards in midplanes, midplanes in racks; Fig 7 breaks
// propagation down exactly along those levels). This module provides that
// hierarchy, Blue Gene-style location codes such as "R00-M0-N03-C:J05-U01",
// and scope queries ("do these two nodes share a midplane?", "what is the
// tightest enclosing scope of this node set?").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace elsa::topo {

/// Hierarchy levels, ordered from tightest to widest. `None` means "no
/// spread at all" (single node) in classification results.
enum class Scope : std::uint8_t {
  None = 0,
  Node,
  NodeCard,
  Midplane,
  Rack,
  System,
};

const char* to_string(Scope s);

/// Position of a component in the hierarchy. Node-level locations have all
/// four indices set; coarser components leave finer fields at -1.
struct Location {
  std::int32_t rack = -1;
  std::int32_t midplane = -1;
  std::int32_t nodecard = -1;
  std::int32_t node = -1;

  bool operator==(const Location&) const = default;
};

/// Naming style for rendered location codes.
enum class NamingStyle : std::uint8_t {
  BlueGene,  ///< R00-M0-N03-C:J05
  Cluster,   ///< tg-c0107 (flat node names, NCSA Mercury style)
};

/// Immutable machine description. Both evaluation systems are instances:
///   Topology::bluegene()          — 64 racks x 2 midplanes x 16 node cards
///                                   x 32 compute nodes (BG/L-like)
///   Topology::cluster(891)        — Mercury-like flat cluster (racks of 32
///                                   for cabling locality, no node cards)
class Topology {
 public:
  static Topology bluegene(std::int32_t racks = 64,
                           std::int32_t midplanes_per_rack = 2,
                           std::int32_t nodecards_per_midplane = 16,
                           std::int32_t nodes_per_nodecard = 32);

  static Topology cluster(std::int32_t nodes, std::int32_t nodes_per_rack = 32,
                          std::string node_prefix = "tg-c");

  std::int32_t total_nodes() const { return total_nodes_; }
  std::int32_t racks() const { return racks_; }
  std::int32_t midplanes_per_rack() const { return midplanes_per_rack_; }
  std::int32_t nodecards_per_midplane() const { return nodecards_per_midplane_; }
  std::int32_t nodes_per_nodecard() const { return nodes_per_nodecard_; }
  NamingStyle naming() const { return naming_; }
  /// Cluster node-code prefix ("tg-c" in "tg-c0107"); empty for Blue Gene.
  const std::string& node_prefix() const { return node_prefix_; }
  /// True when the machine exposes node-card/midplane structure (Blue Gene).
  bool is_hierarchical() const { return naming_ == NamingStyle::BlueGene; }

  /// Full node-level location of a node id in [0, total_nodes()).
  Location location_of(std::int32_t node_id) const;

  /// Inverse of location_of for node-level locations. Throws
  /// std::invalid_argument for a coarser location and std::out_of_range when
  /// any level lies at or beyond its count (or the node beyond the machine).
  std::int32_t node_id(const Location& loc) const;

  /// Rendered code for a node-level location, e.g. "R03-M1-N07-C:J12" or
  /// "tg-c0107" depending on the naming style.
  std::string code(std::int32_t node_id) const;

  /// Rendered code for an arbitrary-granularity location (node card codes
  /// like "R00-M0-N03", midplane codes like "R00-M0", ...).
  std::string code(const Location& loc) const;

  /// Tightest scope containing both nodes (Node if identical).
  Scope common_scope(std::int32_t a, std::int32_t b) const;

  /// Tightest scope containing every node in the set. Empty set -> None;
  /// singleton -> Node. For non-hierarchical machines any multi-node set
  /// inside one rack classifies as Rack, otherwise System.
  Scope classify_spread(std::span<const std::int32_t> nodes) const;

  /// All node ids sharing the given scope with `node_id` (includes itself).
  /// Scope::None and Scope::Node both return just {node_id}.
  std::vector<std::int32_t> nodes_in_scope(std::int32_t node_id, Scope s) const;

  /// Number of nodes a given scope spans around any node.
  std::int32_t scope_size(Scope s) const;

 private:
  Topology() = default;

  std::int32_t racks_ = 0;
  std::int32_t midplanes_per_rack_ = 0;
  std::int32_t nodecards_per_midplane_ = 0;
  std::int32_t nodes_per_nodecard_ = 0;
  std::int32_t total_nodes_ = 0;
  NamingStyle naming_ = NamingStyle::BlueGene;
  std::string node_prefix_;
};

}  // namespace elsa::topo
