#include "topology/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace elsa::topo {

const char* to_string(Scope s) {
  switch (s) {
    case Scope::None: return "none";
    case Scope::Node: return "node";
    case Scope::NodeCard: return "nodecard";
    case Scope::Midplane: return "midplane";
    case Scope::Rack: return "rack";
    case Scope::System: return "system";
  }
  return "?";
}

Topology Topology::bluegene(std::int32_t racks, std::int32_t midplanes_per_rack,
                            std::int32_t nodecards_per_midplane,
                            std::int32_t nodes_per_nodecard) {
  if (racks <= 0 || midplanes_per_rack <= 0 || nodecards_per_midplane <= 0 ||
      nodes_per_nodecard <= 0)
    throw std::invalid_argument("Topology::bluegene: non-positive dimension");
  Topology t;
  t.racks_ = racks;
  t.midplanes_per_rack_ = midplanes_per_rack;
  t.nodecards_per_midplane_ = nodecards_per_midplane;
  t.nodes_per_nodecard_ = nodes_per_nodecard;
  t.total_nodes_ =
      racks * midplanes_per_rack * nodecards_per_midplane * nodes_per_nodecard;
  t.naming_ = NamingStyle::BlueGene;
  return t;
}

Topology Topology::cluster(std::int32_t nodes, std::int32_t nodes_per_rack,
                           std::string node_prefix) {
  if (nodes <= 0 || nodes_per_rack <= 0)
    throw std::invalid_argument("Topology::cluster: non-positive dimension");
  Topology t;
  // Model a flat cluster as racks of single-node "cards": node card and
  // midplane collapse to the node itself; only Node/Rack/System scopes are
  // physically meaningful and classify_spread treats it accordingly.
  t.racks_ = (nodes + nodes_per_rack - 1) / nodes_per_rack;
  t.midplanes_per_rack_ = 1;
  t.nodecards_per_midplane_ = nodes_per_rack;
  t.nodes_per_nodecard_ = 1;
  t.total_nodes_ = nodes;
  t.naming_ = NamingStyle::Cluster;
  t.node_prefix_ = std::move(node_prefix);
  return t;
}

Location Topology::location_of(std::int32_t node_id) const {
  if (node_id < 0 || node_id >= total_nodes_)
    throw std::out_of_range("Topology::location_of: bad node id");
  Location loc;
  const std::int32_t per_nc = nodes_per_nodecard_;
  const std::int32_t per_mp = per_nc * nodecards_per_midplane_;
  const std::int32_t per_rack = per_mp * midplanes_per_rack_;
  loc.rack = node_id / per_rack;
  loc.midplane = (node_id % per_rack) / per_mp;
  loc.nodecard = (node_id % per_mp) / per_nc;
  loc.node = node_id % per_nc;
  return loc;
}

std::int32_t Topology::node_id(const Location& loc) const {
  if (loc.rack < 0 || loc.midplane < 0 || loc.nodecard < 0 || loc.node < 0)
    throw std::invalid_argument("Topology::node_id: not a node-level location");
  // Per level, before multiplying: an overflowing field must neither alias
  // another node nor overflow the sum below.
  if (loc.rack >= racks_ || loc.midplane >= midplanes_per_rack_ ||
      loc.nodecard >= nodecards_per_midplane_ || loc.node >= nodes_per_nodecard_)
    throw std::out_of_range("Topology::node_id: location outside machine");
  const std::int32_t per_nc = nodes_per_nodecard_;
  const std::int32_t per_mp = per_nc * nodecards_per_midplane_;
  const std::int32_t per_rack = per_mp * midplanes_per_rack_;
  const std::int32_t id = loc.rack * per_rack + loc.midplane * per_mp +
                          loc.nodecard * per_nc + loc.node;
  if (id >= total_nodes_)  // a cluster's last rack may be partial
    throw std::out_of_range("Topology::node_id: location outside machine");
  return id;
}

std::string Topology::code(std::int32_t node_id) const {
  return code(location_of(node_id));
}

std::string Topology::code(const Location& loc) const {
  char buf[64];
  if (naming_ == NamingStyle::Cluster) {
    if (loc.rack >= 0 && loc.nodecard >= 0) {
      const std::int32_t flat =
          loc.rack * nodecards_per_midplane_ + loc.nodecard;
      std::snprintf(buf, sizeof buf, "%s%04d", node_prefix_.c_str(), flat);
    } else if (loc.rack >= 0) {
      std::snprintf(buf, sizeof buf, "%s-rack%02d", node_prefix_.c_str(),
                    loc.rack);
    } else {
      std::snprintf(buf, sizeof buf, "%s-system", node_prefix_.c_str());
    }
    return buf;
  }
  // Blue Gene style, truncated at the first unset level.
  if (loc.rack < 0) return "SYSTEM";
  if (loc.midplane < 0) {
    std::snprintf(buf, sizeof buf, "R%02d", loc.rack);
  } else if (loc.nodecard < 0) {
    std::snprintf(buf, sizeof buf, "R%02d-M%d", loc.rack, loc.midplane);
  } else if (loc.node < 0) {
    std::snprintf(buf, sizeof buf, "R%02d-M%d-N%02d", loc.rack, loc.midplane,
                  loc.nodecard);
  } else {
    std::snprintf(buf, sizeof buf, "R%02d-M%d-N%02d-C:J%02d", loc.rack,
                  loc.midplane, loc.nodecard, loc.node);
  }
  return buf;
}

Scope Topology::common_scope(std::int32_t a, std::int32_t b) const {
  const Location la = location_of(a), lb = location_of(b);
  if (la.rack != lb.rack) return Scope::System;
  if (!is_hierarchical()) return a == b ? Scope::Node : Scope::Rack;
  if (la.midplane != lb.midplane) return Scope::Rack;
  if (la.nodecard != lb.nodecard) return Scope::Midplane;
  if (la.node != lb.node) return Scope::NodeCard;
  return Scope::Node;
}

Scope Topology::classify_spread(std::span<const std::int32_t> nodes) const {
  if (nodes.empty()) return Scope::None;
  Scope widest = Scope::Node;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const Scope s = common_scope(nodes[0], nodes[i]);
    if (static_cast<int>(s) > static_cast<int>(widest)) widest = s;
  }
  return widest;
}

std::vector<std::int32_t> Topology::nodes_in_scope(std::int32_t node_id,
                                                   Scope s) const {
  const std::int32_t per_nc = nodes_per_nodecard_;
  const std::int32_t per_mp = per_nc * nodecards_per_midplane_;
  const std::int32_t per_rack = per_mp * midplanes_per_rack_;
  std::int32_t lo = node_id, count = 1;
  switch (s) {
    case Scope::None:
    case Scope::Node:
      break;
    case Scope::NodeCard:
      lo = node_id / per_nc * per_nc;
      count = per_nc;
      break;
    case Scope::Midplane:
      lo = node_id / per_mp * per_mp;
      count = per_mp;
      break;
    case Scope::Rack:
      lo = node_id / per_rack * per_rack;
      count = per_rack;
      break;
    case Scope::System:
      lo = 0;
      count = total_nodes_;
      break;
  }
  count = std::min(count, total_nodes_ - lo);
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) out.push_back(lo + i);
  return out;
}

std::int32_t Topology::scope_size(Scope s) const {
  switch (s) {
    case Scope::None:
    case Scope::Node:
      return 1;
    case Scope::NodeCard:
      return nodes_per_nodecard_;
    case Scope::Midplane:
      return nodes_per_nodecard_ * nodecards_per_midplane_;
    case Scope::Rack:
      return nodes_per_nodecard_ * nodecards_per_midplane_ *
             midplanes_per_rack_;
    case Scope::System:
      return total_nodes_;
  }
  return 1;
}

}  // namespace elsa::topo
