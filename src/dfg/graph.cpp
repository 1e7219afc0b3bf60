#include "dfg/graph.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace ctdf::dfg {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kStart: return "start";
    case OpKind::kEnd: return "end";
    case OpKind::kBinOp: return "binop";
    case OpKind::kUnOp: return "unop";
    case OpKind::kLoad: return "load";
    case OpKind::kLoadIdx: return "load[]";
    case OpKind::kStore: return "store";
    case OpKind::kStoreIdx: return "store[]";
    case OpKind::kSwitch: return "switch";
    case OpKind::kMerge: return "merge";
    case OpKind::kSynch: return "synch";
    case OpKind::kLoopEntry: return "loop-entry";
    case OpKind::kLoopExit: return "loop-exit";
    case OpKind::kIStore: return "istore";
    case OpKind::kIFetch: return "ifetch";
    case OpKind::kGate: return "gate";
    case OpKind::kMacro: return "macro";
  }
  CTDF_UNREACHABLE("bad OpKind");
}

std::int64_t apply_step(const FusedStep& s, std::int64_t v) {
  switch (s.kind) {
    case OpKind::kBinOp:
      return s.value_port == 0 ? lang::eval_binop(s.bop, v, s.literal)
                               : lang::eval_binop(s.bop, s.literal, v);
    case OpKind::kUnOp:
      return lang::eval_unop(s.uop, v);
    case OpKind::kGate:
      return s.value_port == 0 ? v : s.literal;
    case OpKind::kSynch:
      return 0;
    default:
      CTDF_UNREACHABLE("bad FusedStep kind");
  }
}

NodeId Graph::add(Node node) {
  const NodeId id{nodes_.size()};
  node.operands.resize(node.num_inputs);
  nodes_.ensure(id);
  nodes_[id] = std::move(node);
  return id;
}

namespace {
Node make(OpKind kind, std::uint16_t in, std::uint16_t out,
          std::string label) {
  Node n;
  n.kind = kind;
  n.num_inputs = in;
  n.num_outputs = out;
  n.label = std::move(label);
  return n;
}
}  // namespace

NodeId Graph::add_binop(lang::BinOp op, std::string label) {
  Node n = make(OpKind::kBinOp, 2, 1, std::move(label));
  n.bop = op;
  return add(std::move(n));
}

NodeId Graph::add_unop(lang::UnOp op, std::string label) {
  Node n = make(OpKind::kUnOp, 1, 1, std::move(label));
  n.uop = op;
  return add(std::move(n));
}

NodeId Graph::add_load(std::uint32_t base, std::string label) {
  Node n = make(OpKind::kLoad, 1, 2, std::move(label));
  n.mem_base = base;
  return add(std::move(n));
}

NodeId Graph::add_load_idx(std::uint32_t base, std::int64_t extent,
                           std::string label) {
  Node n = make(OpKind::kLoadIdx, 2, 2, std::move(label));
  n.mem_base = base;
  n.mem_extent = extent;
  return add(std::move(n));
}

NodeId Graph::add_store(std::uint32_t base, std::string label) {
  Node n = make(OpKind::kStore, 2, 1, std::move(label));
  n.mem_base = base;
  return add(std::move(n));
}

NodeId Graph::add_store_idx(std::uint32_t base, std::int64_t extent,
                            std::string label) {
  Node n = make(OpKind::kStoreIdx, 3, 1, std::move(label));
  n.mem_base = base;
  n.mem_extent = extent;
  return add(std::move(n));
}

NodeId Graph::add_switch(std::string label) {
  return add(make(OpKind::kSwitch, 2, 2, std::move(label)));
}

NodeId Graph::add_merge(std::string label) {
  return add(make(OpKind::kMerge, 1, 1, std::move(label)));
}

NodeId Graph::add_synch(std::uint16_t arity, std::string label) {
  return add(make(OpKind::kSynch, arity, 1, std::move(label)));
}

NodeId Graph::add_loop_entry(cfg::LoopId loop, std::uint16_t ports,
                             std::string label) {
  Node n = make(OpKind::kLoopEntry, ports, ports, std::move(label));
  n.loop = loop;
  return add(std::move(n));
}

NodeId Graph::add_loop_exit(cfg::LoopId loop, std::uint16_t ports,
                            std::string label) {
  Node n = make(OpKind::kLoopExit, ports, ports, std::move(label));
  n.loop = loop;
  return add(std::move(n));
}

NodeId Graph::add_istore(std::uint32_t base, std::int64_t extent,
                         std::string label) {
  Node n = make(OpKind::kIStore, 3, 1, std::move(label));
  n.mem_base = base;
  n.mem_extent = extent;
  return add(std::move(n));
}

NodeId Graph::add_ifetch(std::uint32_t base, std::int64_t extent,
                         std::string label) {
  Node n = make(OpKind::kIFetch, 2, 1, std::move(label));
  n.mem_base = base;
  n.mem_extent = extent;
  return add(std::move(n));
}

NodeId Graph::add_gate(std::string label) {
  return add(make(OpKind::kGate, 2, 1, std::move(label)));
}

void Graph::connect(PortRef src, PortRef dst, bool dummy) {
  CTDF_ASSERT(src.port < nodes_[src.node].num_outputs);
  CTDF_ASSERT(dst.port < nodes_[dst.node].num_inputs);
  CTDF_ASSERT_MSG(!nodes_[dst.node].operands[dst.port].is_literal,
                  "cannot wire an arc into a literal-bound port");
  arcs_.push_back(Arc{src.node, src.port, dst.node, dst.port, dummy});
}

void Graph::bind_literal(PortRef dst, std::int64_t value) {
  CTDF_ASSERT(dst.port < nodes_[dst.node].num_inputs);
  Operand& op = nodes_[dst.node].operands[dst.port];
  op.is_literal = true;
  op.literal = value;
}

void Graph::erase_arcs(const std::vector<bool>& drop) {
  CTDF_ASSERT(drop.size() == arcs_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < arcs_.size(); ++i)
    if (!drop[i]) arcs_[kept++] = arcs_[i];
  arcs_.resize(kept);
}

FlowView::FlowView(const Graph& g)
    : root_(g.start()),
      succ_begin_(g.num_nodes() + 1, 0),
      pred_begin_(g.num_nodes() + 1, 0),
      succ_(g.num_arcs()),
      pred_(g.num_arcs()) {
  for (const Arc& a : g.arcs()) {
    ++succ_begin_[a.src.index() + 1];
    ++pred_begin_[a.dst.index() + 1];
  }
  for (std::size_t i = 1; i < succ_begin_.size(); ++i) {
    succ_begin_[i] += succ_begin_[i - 1];
    pred_begin_[i] += pred_begin_[i - 1];
  }
  std::vector<std::uint32_t> succ_fill(succ_begin_.begin(),
                                       succ_begin_.end() - 1);
  std::vector<std::uint32_t> pred_fill(pred_begin_.begin(),
                                       pred_begin_.end() - 1);
  for (const Arc& a : g.arcs()) {
    succ_[succ_fill[a.src.index()]++] = a.dst;
    pred_[pred_fill[a.dst.index()]++] = a.src;
  }
}

std::vector<Arc> Graph::out_arcs(NodeId n) const {
  std::vector<Arc> out;
  for (const Arc& a : arcs_)
    if (a.src == n) out.push_back(a);
  return out;
}

std::size_t Graph::fan_in(PortRef p) const {
  std::size_t c = 0;
  for (const Arc& a : arcs_)
    if (a.dst == p.node && a.dst_port == p.port) ++c;
  return c;
}

std::vector<std::string> Graph::validate() const {
  std::vector<std::string> problems;
  const auto fail = [&](std::string m) { problems.push_back(std::move(m)); };

  if (!start_.valid() || nodes_[start_].kind != OpKind::kStart)
    fail("missing/invalid start node");
  if (!end_.valid() || nodes_[end_].kind != OpKind::kEnd)
    fail("missing/invalid end node");

  // One wired flag per input port, node-major: node n's ports start at
  // first_input[n] (ports are bounded by num_inputs, which can be large
  // for loop entry/exit nodes in many-variable programs).
  std::vector<std::uint32_t> first_input(nodes_.size() + 1, 0);
  for (NodeId n : all_nodes())
    first_input[n.index() + 1] =
        first_input[n.index()] + nodes_[n].num_inputs;
  std::vector<bool> wired(first_input.back(), false);

  for (const Arc& a : arcs_) {
    const Node& s = nodes_[a.src];
    const Node& d = nodes_[a.dst];
    if (a.src_port >= s.num_outputs)
      fail("arc out of " + std::to_string(a.src.value()) + " bad src port");
    if (a.dst_port >= d.num_inputs) {
      fail("arc into " + std::to_string(a.dst.value()) + " bad dst port");
    } else {
      if (d.operands[a.dst_port].is_literal)
        fail("arc into literal port of node " + std::to_string(a.dst.value()));
      wired[first_input[a.dst.index()] + a.dst_port] = true;
    }
  }

  for (NodeId n : all_nodes()) {
    const Node& node = nodes_[n];
    if (node.kind == OpKind::kStart &&
        node.start_values.size() != node.num_outputs)
      fail("start node initial-value count mismatch");
    for (std::uint16_t p = 0; p < node.num_inputs; ++p) {
      if (node.operands[p].is_literal) continue;
      if (!wired[first_input[n.index()] + p])
        fail("node " + std::to_string(n.value()) + " (" +
             to_string(node.kind) + " '" + node.label + "') input port " +
             std::to_string(p) + " unwired");
    }
  }
  return problems;
}

std::string Graph::to_dot() const {
  std::ostringstream os;
  os << "digraph dfg {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n";
  for (NodeId n : all_nodes()) {
    const Node& node = nodes_[n];
    std::string shape = "box";
    switch (node.kind) {
      case OpKind::kSwitch: shape = "invtrapezium"; break;
      case OpKind::kMerge: shape = "trapezium"; break;
      case OpKind::kSynch: shape = "triangle"; break;
      case OpKind::kLoopEntry:
      case OpKind::kLoopExit: shape = "box3d"; break;
      case OpKind::kStart:
      case OpKind::kEnd: shape = "ellipse"; break;
      default: break;
    }
    std::string label = to_string(node.kind);
    if (node.kind == OpKind::kBinOp)
      label = lang::to_string(node.bop);
    else if (node.kind == OpKind::kUnOp)
      label = lang::to_string(node.uop);
    else if (node.kind == OpKind::kMacro)
      label = "macro x" + std::to_string(node.steps.size() + 1);
    if (!node.label.empty()) label += "\\n" + node.label;
    os << "  n" << n.value() << " [shape=" << shape << ", label=\"" << label
       << "\"];\n";
  }
  for (const Arc& a : arcs_) {
    os << "  n" << a.src.value() << " -> n" << a.dst.value() << " [";
    if (a.dummy) os << "style=dotted, ";
    os << "taillabel=\"" << a.src_port << "\", headlabel=\"" << a.dst_port
       << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

GraphStats compute_stats(const Graph& g) {
  GraphStats s;
  s.nodes = g.num_nodes();
  s.arcs = g.num_arcs();
  for (const Arc& a : g.arcs())
    if (a.dummy) ++s.dummy_arcs;
  for (NodeId n : g.all_nodes()) {
    switch (g.node(n).kind) {
      case OpKind::kSwitch: ++s.switches; break;
      case OpKind::kMerge: ++s.merges; break;
      case OpKind::kSynch: ++s.synchs; break;
      case OpKind::kLoad:
      case OpKind::kLoadIdx:
      case OpKind::kIFetch: ++s.loads; break;
      case OpKind::kStore:
      case OpKind::kStoreIdx:
      case OpKind::kIStore: ++s.stores; break;
      case OpKind::kBinOp:
      case OpKind::kUnOp:
      case OpKind::kGate:
      case OpKind::kMacro: ++s.alu_ops; break;
      case OpKind::kLoopEntry:
      case OpKind::kLoopExit: ++s.loop_nodes; break;
      default: break;
    }
  }
  return s;
}

}  // namespace ctdf::dfg
