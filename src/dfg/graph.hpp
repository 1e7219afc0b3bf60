// The dataflow-graph intermediate representation (paper Section 2.2).
//
// Nodes are dataflow operators; arcs connect (node, out-port) to
// (node, in-port). Arcs carrying only synchronization ("dummy") tokens
// — the access tokens of the paper — are flagged so DOT output renders
// them dotted, as in the paper's figures.
//
// Conventions:
//  * An input port may be bound to an integer literal instead of an
//    arc (constants are operands, not operators; a zero-input operator
//    would fire unboundedly).
//  * Fan-out: one out-port may feed any number of in-ports (the
//    machine replicates the token).
//  * Fan-in: several arcs may target the same in-port only where their
//    firings are mutually exclusive per context (merge semantics); the
//    simulator traps a genuine collision.
//
// Operator port layouts (fixed, see port constants below):
//   Load      in: [access]               out: [value, ack]
//   LoadIdx   in: [index, access]        out: [value, ack]
//   Store     in: [value, access]        out: [ack]
//   StoreIdx  in: [value, index, access] out: [ack]
//   Switch    in: [data, pred]           out: [true, false]
//   Merge     in: [in]                   out: [out]       (non-strict)
//   Synch     in: [0..n-1]               out: [out]
//   LoopEntry in: [0..n-1]               out: [0..n-1]    (port i ↔ i)
//   LoopExit  in: [0..n-1]               out: [0..n-1]    (non-strict)
//   IStore    in: [value, index, trigger] out: [ack]
//   IFetch    in: [index, trigger]       out: [value]
//   Gate      in: [value, trigger]       out: [value]
//   BinOp     in: [lhs, rhs]             out: [value]
//   UnOp      in: [operand]              out: [value]
//   Start     in: []                     out: [0..n-1]    (fired at boot)
//   End       in: [0..n-1]               out: []          (halts machine)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cfg/graph.hpp"
#include "lang/ast.hpp"
#include "support/ids.hpp"
#include "support/index_map.hpp"
#include "support/small_vec.hpp"

namespace ctdf::dfg {

struct NodeTag;
using NodeId = support::Id<NodeTag>;

enum class OpKind : std::uint8_t {
  kStart,
  kEnd,
  kBinOp,
  kUnOp,
  kLoad,
  kLoadIdx,
  kStore,
  kStoreIdx,
  kSwitch,
  kMerge,
  kSynch,
  kLoopEntry,
  kLoopExit,
  kIStore,
  kIFetch,
  /// out = in[value] once in[trigger] has arrived; used to materialize a
  /// fresh value-carrying token (e.g. `x := 5` after memory elimination,
  /// where the new token must consume/replace the old one).
  kGate,
  /// A fused chain of single-consumer pure ops (pass manager's
  /// fuse_chains): the node matches and fires like its original head
  /// operator (Node::head_kind), then applies Node::steps to the result
  /// in order — one match, one emitted token, N ALU steps.
  kMacro,
};

/// Number of OpKind enumerators — the size of any per-kind table (e.g.
/// RunStats::fired_by_kind).
inline constexpr std::size_t kNumOpKinds = 17;
static_assert(static_cast<std::size_t>(OpKind::kMacro) + 1 == kNumOpKinds,
              "kNumOpKinds must track the OpKind enumerator count");

[[nodiscard]] const char* to_string(OpKind k);

/// Operators that address the token store (split-phase memory or
/// I-structure cells).
[[nodiscard]] constexpr bool is_memory_op(OpKind k) {
  switch (k) {
    case OpKind::kLoad:
    case OpKind::kLoadIdx:
    case OpKind::kStore:
    case OpKind::kStoreIdx:
    case OpKind::kIStore:
    case OpKind::kIFetch:
      return true;
    default:
      return false;
  }
}

/// Memory operators that mutate cells (an acknowledgement still in
/// flight when End fires means memory is not final).
[[nodiscard]] constexpr bool is_write_op(OpKind k) {
  return k == OpKind::kStore || k == OpKind::kStoreIdx ||
         k == OpKind::kIStore;
}

/// Operators that forward each arriving token immediately instead of
/// rendezvousing in a matching slot, regardless of machine
/// configuration. (LoopEntry is additionally non-strict under pipelined
/// loop control — a machine-mode property, so not encoded here.)
[[nodiscard]] constexpr bool is_non_strict_base(OpKind k) {
  return k == OpKind::kMerge || k == OpKind::kLoopExit;
}

/// Well-known port indices.
namespace port {
// Load / LoadIdx outputs.
inline constexpr std::uint16_t kLoadValue = 0;
inline constexpr std::uint16_t kLoadAck = 1;
// Switch inputs / outputs.
inline constexpr std::uint16_t kSwitchData = 0;
inline constexpr std::uint16_t kSwitchPred = 1;
inline constexpr std::uint16_t kSwitchTrue = 0;
inline constexpr std::uint16_t kSwitchFalse = 1;
}  // namespace port

struct Operand {
  bool is_literal = false;
  std::int64_t literal = 0;
};

/// One absorbed tail of a kMacro node. The chained value enters on
/// `value_port`; every other input port of the original tail was
/// literal-bound, so the step is a pure function of one value:
///   kBinOp: v' = value_port == 0 ? bop(v, literal) : bop(literal, v)
///   kUnOp:  v' = uop(v)
///   kGate:  v' = value_port == 0 ? v : literal   (trigger side chained)
///   kSynch: v' = 0
struct FusedStep {
  OpKind kind = OpKind::kBinOp;  ///< kBinOp / kUnOp / kGate / kSynch
  lang::BinOp bop = lang::BinOp::kAdd;
  lang::UnOp uop = lang::UnOp::kNeg;
  std::uint16_t value_port = 0;  ///< port the chained value arrives on
  std::int64_t literal = 0;      ///< the other port's literal (kBinOp/kGate)
};

/// Applies one fused step to the chained value.
[[nodiscard]] std::int64_t apply_step(const FusedStep& s, std::int64_t v);

struct Node {
  OpKind kind = OpKind::kSynch;
  std::uint16_t num_inputs = 0;
  std::uint16_t num_outputs = 0;

  lang::BinOp bop = lang::BinOp::kAdd;  ///< kBinOp
  lang::UnOp uop = lang::UnOp::kNeg;    ///< kUnOp

  std::uint32_t mem_base = 0;   ///< memory ops: base cell
  std::int64_t mem_extent = 1;  ///< memory ops: cells (index wrapping)

  cfg::LoopId loop;  ///< kLoopEntry / kLoopExit

  /// Size num_inputs; inline up to three, the common case.
  support::SmallVec<Operand, 3> operands;
  std::vector<std::int64_t> start_values;   ///< kStart: initial token values

  /// kMacro: the original kind of the chain head (how the matched
  /// inputs produce the initial value) and the absorbed tail steps.
  OpKind head_kind = OpKind::kBinOp;
  std::vector<FusedStep> steps;

  /// Set on the pass-through merges lower_fanout inserts: replication
  /// trees deliberately have a single source, so merge-collapsing must
  /// never fold them back into the unbounded fan-out they lower.
  bool replicate = false;

  std::string label;  ///< debug / DOT
};

struct Arc {
  NodeId src;
  std::uint16_t src_port = 0;
  NodeId dst;
  std::uint16_t dst_port = 0;
  bool dummy = false;  ///< access/ack token (dotted in the paper's figures)
};

struct PortRef {
  NodeId node;
  std::uint16_t port = 0;

  [[nodiscard]] bool valid() const { return node.valid(); }
  friend bool operator==(const PortRef&, const PortRef&) = default;
};

class Graph {
 public:
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }
  [[nodiscard]] const Node& node(NodeId n) const { return nodes_[n]; }
  [[nodiscard]] Node& node(NodeId n) { return nodes_[n]; }
  [[nodiscard]] const std::vector<Arc>& arcs() const { return arcs_; }

  [[nodiscard]] NodeId start() const { return start_; }
  [[nodiscard]] NodeId end() const { return end_; }
  void set_start(NodeId n) { start_ = n; }
  void set_end(NodeId n) { end_ = n; }

  /// Adds a node; `label` is for debugging/DOT only.
  NodeId add(Node node);

  /// Room for `n` nodes, so building a graph of that size moves none.
  void reserve(std::size_t n) { nodes_.raw().reserve(n); }

  // Convenience constructors.
  NodeId add_binop(lang::BinOp op, std::string label = {});
  NodeId add_unop(lang::UnOp op, std::string label = {});
  NodeId add_load(std::uint32_t base, std::string label = {});
  NodeId add_load_idx(std::uint32_t base, std::int64_t extent,
                      std::string label = {});
  NodeId add_store(std::uint32_t base, std::string label = {});
  NodeId add_store_idx(std::uint32_t base, std::int64_t extent,
                       std::string label = {});
  NodeId add_switch(std::string label = {});
  NodeId add_merge(std::string label = {});
  NodeId add_synch(std::uint16_t arity, std::string label = {});
  NodeId add_loop_entry(cfg::LoopId loop, std::uint16_t ports,
                        std::string label = {});
  NodeId add_loop_exit(cfg::LoopId loop, std::uint16_t ports,
                       std::string label = {});
  NodeId add_istore(std::uint32_t base, std::int64_t extent,
                    std::string label = {});
  NodeId add_ifetch(std::uint32_t base, std::int64_t extent,
                    std::string label = {});
  NodeId add_gate(std::string label = {});

  /// Connects src's out-port to dst's in-port.
  void connect(PortRef src, PortRef dst, bool dummy);

  /// Binds dst's in-port to a constant.
  void bind_literal(PortRef dst, std::int64_t value);

  /// Removes the arcs flagged in `drop` (one flag per arc), keeping the
  /// others in order.
  void erase_arcs(const std::vector<bool>& drop);

  /// Out-arcs of (node, port).
  [[nodiscard]] std::vector<Arc> out_arcs(NodeId n) const;

  /// Number of arcs into (node, port).
  [[nodiscard]] std::size_t fan_in(PortRef p) const;

  /// All node ids, ascending.
  [[nodiscard]] support::IdRange<NodeId> all_nodes() const {
    return support::IdRange<NodeId>{nodes_.size()};
  }

  /// Structural checks; returns problems (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Graphviz rendering (dummy arcs dotted, as in the paper).
  [[nodiscard]] std::string to_dot() const;

 private:
  support::IndexMap<NodeId, Node> nodes_;
  std::vector<Arc> arcs_;
  NodeId start_;
  NodeId end_;
};

/// The graph's arcs as the graph-algorithms toolkit
/// (support/graph_algo.hpp) walks them: from Start in token-flow
/// direction, each node's successors and predecessors in arc order,
/// parallel arcs kept. Built once, as flat lists per node.
class FlowView {
 public:
  using Id = NodeId;

  explicit FlowView(const Graph& g);

  [[nodiscard]] std::size_t size() const { return succ_begin_.size() - 1; }
  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::span<const NodeId> succs(NodeId n) const {
    return {succ_.data() + succ_begin_[n.index()],
            succ_.data() + succ_begin_[n.index() + 1]};
  }
  [[nodiscard]] std::span<const NodeId> preds(NodeId n) const {
    return {pred_.data() + pred_begin_[n.index()],
            pred_.data() + pred_begin_[n.index() + 1]};
  }

 private:
  NodeId root_;
  std::vector<std::uint32_t> succ_begin_, pred_begin_;  ///< plus an end
  std::vector<NodeId> succ_, pred_;
};

/// Static size/shape statistics used by the graph-size and
/// switch-elimination experiments.
struct GraphStats {
  std::size_t nodes = 0;
  std::size_t arcs = 0;
  std::size_t dummy_arcs = 0;
  std::size_t switches = 0;
  std::size_t merges = 0;
  std::size_t synchs = 0;
  std::size_t loads = 0;
  std::size_t stores = 0;
  std::size_t alu_ops = 0;
  std::size_t loop_nodes = 0;
};

[[nodiscard]] GraphStats compute_stats(const Graph& g);

}  // namespace ctdf::dfg
