#include "dfg/passes.hpp"

#include <algorithm>
#include <map>

#include "support/assert.hpp"

namespace ctdf::dfg {

std::size_t max_fanout(const Graph& g) {
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::size_t> counts;
  for (const Arc& a : g.arcs()) ++counts[{a.src.value(), a.src_port}];
  std::size_t best = 0;
  for (const auto& [port, c] : counts) best = std::max(best, c);
  return best;
}

std::size_t lower_fanout(Graph& g, std::size_t max_destinations) {
  CTDF_ASSERT(max_destinations >= 2);
  const std::size_t groups = max_destinations;
  // One pass over the out-ports in ascending (node, port) order. A port
  // over the bound has its arcs dealt round-robin into `groups` groups:
  // a group of one is wired directly, a larger one behind a fresh
  // replicate (merge) node. Replicates are appended, so their ids exceed
  // every port already passed and the same pass bounds their own
  // fan-out later, yielding a tree. New arcs are appended and moved ones
  // dropped at the end, so node ids and arc order are those of
  // rebuilding the graph port by port.
  const std::size_t original = g.num_nodes();

  // The original nodes' out-arcs, grouped per port in arc order:
  // port_arcs[port_begin[p] .. port_begin[p + 1]) for port number p,
  // where node n's ports are numbered from first_port[n].
  std::vector<std::uint32_t> first_port(original + 1, 0);
  for (NodeId n : g.all_nodes())
    first_port[n.index() + 1] =
        first_port[n.index()] + g.node(n).num_outputs;
  std::vector<std::uint32_t> port_begin(first_port.back() + 1, 0);
  for (const Arc& a : g.arcs())
    ++port_begin[first_port[a.src.index()] + a.src_port + 1];
  for (std::size_t p = 1; p < port_begin.size(); ++p)
    port_begin[p] += port_begin[p - 1];
  std::vector<std::uint32_t> port_arcs(g.num_arcs());
  {
    std::vector<std::uint32_t> fill(port_begin.begin(), port_begin.end() - 1);
    for (std::uint32_t i = 0; i < g.num_arcs(); ++i) {
      const Arc& a = g.arcs()[i];
      port_arcs[fill[first_port[a.src.index()] + a.src_port]++] = i;
    }
  }
  // A replicate's out-arcs are appended together: [first, second).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> replicate_arcs;

  std::vector<bool> drop(g.num_arcs(), false);
  const auto connect = [&](PortRef src, PortRef dst, bool dummy) {
    g.connect(src, dst, dummy);
    drop.push_back(false);
  };
  std::vector<std::uint32_t> moved;
  std::size_t inserted = 0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const NodeId src{i};
    for (std::uint16_t port = 0; port < g.node(src).num_outputs; ++port) {
      moved.clear();
      if (i < original) {
        const std::uint32_t p = first_port[i] + port;
        moved.assign(port_arcs.begin() + port_begin[p],
                     port_arcs.begin() + port_begin[p + 1]);
      } else {
        const auto [first, last] = replicate_arcs[i - original];
        for (std::uint32_t k = first; k < last; ++k) moved.push_back(k);
      }
      if (moved.size() <= max_destinations) continue;
      for (const std::uint32_t k : moved) drop[k] = true;
      const bool dummy = g.arcs()[moved.front()].dummy;
      for (std::size_t gi = 0; gi < groups; ++gi) {
        // Destinations gi, gi+groups, gi+2*groups, ...
        if (gi + groups >= moved.size()) {  // a group of one
          const Arc a = g.arcs()[moved[gi]];
          connect({src, port}, {a.dst, a.dst_port}, a.dummy);
          continue;
        }
        const NodeId rep = g.add_merge("rep");
        // Replicate trees are single-source by design: mark the node so
        // collapse-merge never undoes the fan-out bound (the pass skips
        // Node::replicate).
        g.node(rep).replicate = true;
        ++inserted;
        connect({src, port}, {rep, 0}, dummy);
        const auto first = static_cast<std::uint32_t>(g.num_arcs());
        for (std::size_t k = gi; k < moved.size(); k += groups) {
          const Arc a = g.arcs()[moved[k]];
          connect({rep, 0}, {a.dst, a.dst_port}, a.dummy);
        }
        replicate_arcs.emplace_back(first,
                                    static_cast<std::uint32_t>(g.num_arcs()));
      }
    }
  }
  g.erase_arcs(drop);
  return inserted;
}

}  // namespace ctdf::dfg
