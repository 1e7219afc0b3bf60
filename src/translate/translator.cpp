// The fused Fig. 11 construction: one reverse-postorder pass over the
// loop-transformed CFG that wires the dataflow graph from the stage
// artifacts (cover, resource classification, source vectors, switch
// placement, postdominators). Orchestration — stage order, timing,
// stats, dumps — lives in stages.cpp; this file only builds the graph.
#include "translate/translator.hpp"

#include <algorithm>
#include <array>

#include "cfg/dominance.hpp"
#include "cfg/intervals.hpp"
#include "support/assert.hpp"
#include "support/graph_algo.hpp"
#include "translate/build_graph.hpp"
#include "translate/classify.hpp"
#include "translate/source_vectors.hpp"

namespace ctdf::translate {

namespace {

using cfg::NodeId;
using dfg::PortRef;
using lang::VarId;

/// A compile-time expression value: a literal or a token-producing port.
struct ValueSrc {
  bool is_literal = false;
  std::int64_t literal = 0;
  PortRef port;

  static ValueSrc lit(std::int64_t v) { return {true, v, {}}; }
  static ValueSrc of(PortRef p) { return {false, 0, p}; }
};

/// A set of candidate source ports, in insertion order. The usual one
/// to four live inline; a longer list moves to the heap whole.
class PortList {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const PortRef* begin() const {
    return size_ <= kInline ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const PortRef* end() const { return begin() + size_; }
  [[nodiscard]] PortRef front() const { return *begin(); }

  [[nodiscard]] bool contains(PortRef p) const {
    return std::find(begin(), end(), p) != end();
  }

  void push_back(PortRef p) {
    if (size_ < kInline) {
      inline_[size_++] = p;
      return;
    }
    if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(p);
    ++size_;
  }

  void add_unique(PortRef p) {
    if (!contains(p)) push_back(p);
  }

 private:
  static constexpr std::uint32_t kInline = 4;
  std::uint32_t size_ = 0;
  std::array<PortRef, kInline> inline_;
  std::vector<PortRef> spill_;  ///< every port, once size_ > kInline
};

/// The token state of one resource at one CFG point: sets of candidate
/// source ports for the main token and (when the resource is "split",
/// Fig. 14 / I-structure modes) the completion-chain token.
struct Comp {
  PortList main;
  PortList chain;

  [[nodiscard]] bool empty() const { return main.empty() && chain.empty(); }
};

/// Where sources arriving late at an already-built node (a loop entry
/// or a cyclic join) wire to.
struct Sink {
  PortRef main;
  PortRef chain;
};

/// True iff every source in b is already in a.
bool subsumes(const PortList& a, const PortList& b) {
  return std::all_of(b.begin(), b.end(),
                     [&](PortRef p) { return a.contains(p); });
}

/// A loop node's label: `prefix` (L entry, X exit) and the loop number.
/// Appended rather than written `"L" + std::to_string(...)`: g++ 12 can
/// report a false -Wrestrict on the string insert that form inlines.
std::string loop_label(char prefix, cfg::LoopId loop) {
  std::string label(1, prefix);
  label += std::to_string(loop.value());
  return label;
}

class Builder {
 public:
  Builder(const lang::Program& prog, const TranslateOptions& options,
          support::DiagnosticEngine& diags, const lang::StorageLayout& layout,
          const cfg::Graph& cfg, const cfg::LoopInfo& loops,
          const Cover& cover, const ResourceClasses& classes,
          const SourceVectors& sv, const cfg::DomTree& pdom,
          Translation& result)
      : prog_(prog),
        opt_(options),
        diags_(diags),
        layout_(layout),
        cfg_(cfg),
        loops_(loops),
        cover_(cover),
        classes_(classes),
        sv_(sv),
        pdom_(pdom),
        num_res_(cover.size()),
        result_(result) {}

  // ---------------------------------------------------------------------
  // Construction (fused Fig. 11 + wiring), one RPO pass.
  // ---------------------------------------------------------------------

  void build() {
    dfg::Graph& g = result_.graph;

    support::build_order(cfg::ForwardView{cfg_}, order_);

    // Serve-cold programs emit about 3.5 nodes per CFG node; a larger
    // graph grows from there.
    g.reserve(4 * cfg_.size());
    incoming_.resize(cfg_.size() * num_res_);
    sinks_.resize(cfg_.size() * num_res_);
    processed_.assign(cfg_.size(), false);
    cur_.resize(num_res_);
    loads_.resize(prog_.symbols.size());

    // Start: one port per resource, all tokens initially 0 (memory is
    // zeroed; eliminated resources carry the value 0).
    {
      dfg::Node s;
      s.kind = dfg::OpKind::kStart;
      s.num_outputs = static_cast<std::uint16_t>(num_res_);
      s.start_values.assign(num_res_, 0);
      s.label = "start";
      const dfg::NodeId sn = g.add(std::move(s));
      g.set_start(sn);
      for (Resource r = 0; r < num_res_; ++r) {
        Comp c;
        c.main.push_back({sn, static_cast<std::uint16_t>(r)});
        if (split_at(cfg_.start(), r)) c.chain = c.main;  // same port fans out
        propagate(cfg_.node(cfg_.start()).succ_true, r, c);
      }
      processed_[cfg_.start().index()] = true;
    }

    for (auto it = order_.postorder.rbegin(); it != order_.postorder.rend();
         ++it) {
      const NodeId n = *it;
      if (n == cfg_.start()) continue;
      switch (cfg_.kind(n)) {
        case cfg::NodeKind::kAssign:
        case cfg::NodeKind::kFork:
          build_statement(n);
          break;
        case cfg::NodeKind::kJoin:
          build_join(n);
          break;
        case cfg::NodeKind::kLoopEntry:
          build_loop_entry(n);
          break;
        case cfg::NodeKind::kLoopExit:
          build_loop_exit(n);
          break;
        case cfg::NodeKind::kEnd:
          build_end(n);
          break;
        case cfg::NodeKind::kStart:
          CTDF_UNREACHABLE("start handled above");
      }
      processed_[n.index()] = true;
    }
  }

 private:
  /// The token state of resource r entering CFG node n.
  Comp& incoming(NodeId n, Resource r) {
    return incoming_[n.index() * num_res_ + r];
  }

  /// Where late-arriving sources of resource r at node n wire to.
  Sink& sink(NodeId n, Resource r) { return sinks_[n.index() * num_res_ + r]; }

  /// Is resource r "split" into (go, chain) tokens at node n?
  [[nodiscard]] bool split_at(NodeId n, Resource r) const {
    return classes_.split_at(loops_, n, r);
  }

  /// Pushes `sources` for resource r along the CFG edge into `to` (or a
  /// bypass jump). If `to` was already processed the sources must either
  /// wire into a registered sink (loop entries, cyclic joins) or be
  /// already-known (a symbolic pass-through closing a cycle).
  void propagate(NodeId to, Resource r, const Comp& sources) {
    if (sources.empty()) return;
    Comp& dst = incoming(to, r);
    if (!processed_[to.index()]) {
      for (PortRef p : sources.main) dst.main.add_unique(p);
      for (PortRef p : sources.chain) dst.chain.add_unique(p);
      return;
    }
    const Sink& sk = sink(to, r);
    if (sk.main.valid()) {
      for (PortRef p : sources.main)
        result_.graph.connect(p, sk.main, arc_dummy(r));
      if (sk.chain.valid()) {
        const PortList& chain_srcs =
            sources.chain.empty() ? sources.main : sources.chain;
        for (PortRef p : chain_srcs)
          result_.graph.connect(p, sk.chain, /*dummy=*/true);
      } else {
        CTDF_ASSERT_MSG(sources.chain.empty(),
                        "split token arrived at an unsplit sink");
      }
      return;
    }
    // No sink: legal only if nothing new arrives (a pass-through source
    // flowing around a cycle it never interacted with).
    CTDF_ASSERT_MSG(
        subsumes(dst.main, sources.main) && subsumes(dst.chain, sources.chain),
        "new token source reached an already-constructed node");
  }

  [[nodiscard]] bool arc_dummy(Resource r) const {
    return !classes_.eliminated[r];
  }

  /// Collapses a source set to one port, inserting a dataflow merge
  /// (labelled `label_prefix` + the resource's name) when several
  /// exclusive sources feed the same consumer (paper Sec. 4.2: a join
  /// with a single source is no operator).
  PortRef coalesce(const PortList& sources, Resource r,
                   const char* label_prefix) {
    CTDF_ASSERT_MSG(!sources.empty(), "consumer with no token source");
    if (sources.size() == 1) return sources.front();
    const dfg::NodeId m = result_.graph.add_merge(label_prefix + res_name(r));
    for (PortRef p : sources)
      result_.graph.connect(p, {m, 0}, arc_dummy(r));
    return {m, 0};
  }

  [[nodiscard]] std::string res_name(Resource r) const {
    return cover_.name(r, prog_.symbols);
  }

  // --- joins ---------------------------------------------------------------

  [[nodiscard]] bool has_back_in_edge(NodeId n) const {
    for (NodeId p : cfg_.preds(n))
      if (order_[p].postorder_i <= order_[n].postorder_i) return true;
    return false;
  }

  void build_join(NodeId n) {
    const NodeId succ = cfg_.node(n).succ_true;
    if (has_back_in_edge(n)) {
      // Only possible in sequential (Schema 1) mode, where joins are
      // translated to merges and cycles carry the single access token.
      CTDF_ASSERT_MSG(opt_.sequential,
                      "cyclic join outside sequential mode (loop transform "
                      "should have rerouted it)");
      for (Resource r = 0; r < num_res_; ++r) {
        const Comp& in = incoming(n, r);
        if (in.empty()) continue;
        const dfg::NodeId m =
            result_.graph.add_merge("join " + cfg_.node(n).name);
        for (PortRef p : in.main)
          result_.graph.connect(p, {m, 0}, arc_dummy(r));
        sink(n, r).main = {m, 0};
        Comp out;
        out.main.push_back({m, 0});
        propagate(succ, r, out);
      }
      return;
    }
    for (Resource r = 0; r < num_res_; ++r) {
      const Comp& in = incoming(n, r);
      if (in.empty()) continue;
      if (in.main.size() <= 1 && in.chain.size() <= 1) {
        propagate(succ, r, in);
        continue;
      }
      Comp out;
      out.main.push_back(coalesce(in.main, r, "merge "));
      if (!in.chain.empty())
        out.chain.push_back(coalesce(in.chain, r, "merge'"));
      propagate(succ, r, out);
    }
  }

  // --- loop entry / exit -----------------------------------------------------

  void build_loop_entry(NodeId n) {
    dfg::Graph& g = result_.graph;
    const cfg::Node& node = cfg_.node(n);
    const auto& res = sv_.uses[n];
    const NodeId succ = node.succ_true;

    if (!res.empty()) {
      // Port layout: for each resource in order, a main port and (if
      // split inside this loop) a chain port.
      slots_.clear();
      for (Resource r : res) slots_.emplace_back(r, split_at(n, r));
      std::uint16_t ports = 0;
      for (auto& [r, split] : slots_) ports += split ? 2 : 1;

      const dfg::NodeId le =
          g.add_loop_entry(node.loop, ports, loop_label('L', node.loop));
      std::uint16_t next_port = 0;
      for (auto& [r, split] : slots_) {
        const PortRef main_in{le, next_port};
        const PortRef chain_in =
            split ? PortRef{le, static_cast<std::uint16_t>(next_port + 1)}
                  : PortRef{};
        next_port += split ? 2 : 1;

        const Comp& in = incoming(n, r);
        CTDF_ASSERT_MSG(!in.main.empty(), "loop resource never produced");
        for (PortRef p : in.main) g.connect(p, main_in, arc_dummy(r));
        if (split) {
          const PortList& chain_srcs = in.chain.empty() ? in.main : in.chain;
          for (PortRef p : chain_srcs) g.connect(p, chain_in, true);
        } else {
          CTDF_ASSERT_MSG(in.chain.empty(),
                          "split token entering unsplit loop port");
        }
        sink(n, r) = Sink{main_in, chain_in};

        Comp out;
        out.main.push_back(main_in);   // loop entry out-port i mirrors in-port i
        if (split) out.chain.push_back(chain_in);
        propagate(succ, r, out);
      }
    }

    // Resources the loop does not touch flow past symbolically.
    for (Resource r = 0; r < num_res_; ++r) {
      if (std::find(res.begin(), res.end(), r) != res.end()) continue;
      propagate(succ, r, incoming(n, r));
    }
  }

  void build_loop_exit(NodeId n) {
    dfg::Graph& g = result_.graph;
    const cfg::Node& node = cfg_.node(n);
    const auto& res = sv_.uses[n];
    const NodeId succ = node.succ_true;
    const NodeId pred = cfg_.preds(n).front();

    if (!res.empty()) {
      slots_.clear();
      for (Resource r : res) slots_.emplace_back(r, split_at(pred, r));
      std::uint16_t ports = 0;
      for (auto& [r, split] : slots_) ports += split ? 2 : 1;

      const dfg::NodeId lx =
          g.add_loop_exit(node.loop, ports, loop_label('X', node.loop));
      std::uint16_t next_port = 0;
      for (auto& [r, split_in] : slots_) {
        const PortRef main_in{lx, next_port};
        const PortRef chain_in =
            split_in ? PortRef{lx, static_cast<std::uint16_t>(next_port + 1)}
                     : PortRef{};
        next_port += split_in ? 2 : 1;

        const Comp& in = incoming(n, r);
        CTDF_ASSERT_MSG(!in.main.empty(), "loop exit resource missing");
        for (PortRef p : in.main) g.connect(p, main_in, arc_dummy(r));
        if (split_in) {
          const PortList& chain_srcs = in.chain.empty() ? in.main : in.chain;
          for (PortRef p : chain_srcs) g.connect(p, chain_in, true);
        }

        Comp out;
        if (split_in && !split_at(n, r)) {
          // Leaving the relaxed region: wait for the completion chain
          // (all outstanding stores) before releasing the access token.
          const dfg::NodeId sy = g.add_synch(2, "collect " + res_name(r));
          g.connect(main_in, {sy, 0}, true);
          g.connect(chain_in, {sy, 1}, true);
          out.main.push_back({sy, 0});
        } else {
          out.main.push_back(main_in);
          if (split_in) out.chain.push_back(chain_in);
        }
        propagate(succ, r, out);
      }
    }

    for (Resource r = 0; r < num_res_; ++r) {
      if (std::find(res.begin(), res.end(), r) != res.end()) continue;
      propagate(succ, r, incoming(n, r));
    }
  }

  // --- end -------------------------------------------------------------------

  void build_end(NodeId n) {
    dfg::Graph& g = result_.graph;
    dfg::Node e;
    e.kind = dfg::OpKind::kEnd;
    e.num_inputs = static_cast<std::uint16_t>(num_res_);
    e.label = "end";
    const dfg::NodeId en = g.add(std::move(e));
    g.set_end(en);

    for (Resource r = 0; r < num_res_; ++r) {
      const Comp& in = incoming(n, r);
      CTDF_ASSERT_MSG(!in.main.empty(),
                      "a resource token never reached the end node");
      const PortRef dst{en, static_cast<std::uint16_t>(r)};
      if (!in.chain.empty()) {
        // I-structure resources: wait for the write-completion chain
        // too.
        const dfg::NodeId sy = g.add_synch(2, "end-collect " + res_name(r));
        for (PortRef p : in.main) g.connect(p, {sy, 0}, true);
        for (PortRef p : in.chain) g.connect(p, {sy, 1}, true);
        g.connect({sy, 0}, dst, true);
      } else if (classes_.eliminated[r]) {
        // Write the token-carried value back so the final store is
        // observable (and comparable with the reference interpreter).
        const VarId v = cover_.singleton_var(r);
        const dfg::NodeId st = g.add_store(
            static_cast<std::uint32_t>(layout_.base(v)),
            "writeback " + prog_.symbols.name(v));
        const PortRef src = coalesce(in.main, r, "wb ");
        g.connect(src, {st, 0}, false);  // value
        g.connect(src, {st, 1}, false);  // permission = the token itself
        g.connect({st, 0}, dst, true);
      } else {
        for (PortRef p : in.main) g.connect(p, dst, true);
      }
    }
  }

  // --- statements (assignments and forks) -------------------------------------

  // Per-statement construction state lives in two member tables that
  // are sized once and reused by every statement: cur_ (by resource)
  // and loads_ (by variable). An entry belongs to the current statement
  // iff its stamp is stmt_.

  /// The token state of one resource inside the current statement.
  struct CurState {
    std::uint32_t stmt = 0;           ///< statement stamp; 0 = none yet
    PortRef entry_main;               ///< snapshot at statement entry
    PortRef main;                     ///< rolling permission/value token
    PortRef chain;                    ///< completion chain (split modes)
    std::vector<PortRef> pending_acks;  ///< parallel-read acks to collect
  };

  /// The value port of a scalar already loaded by the current statement.
  struct LoadedScalar {
    std::uint32_t stmt = 0;
    PortRef value;
  };

  /// Is resource r in the current statement's use set?
  [[nodiscard]] bool touches(Resource r) const {
    return cur_[r].stmt == stmt_;
  }

  CurState& state_of(Resource r) {
    CTDF_ASSERT_MSG(touches(r),
                    "statement touched a resource outside its use set");
    return cur_[r];
  }

  void init_statement(NodeId n) {
    ++stmt_;
    for (Resource r : sv_.uses[n]) {
      const Comp& in = incoming(n, r);
      const PortRef entry = coalesce(in.main, r, "in ");
      const PortRef chain =
          in.chain.empty() ? PortRef{} : coalesce(in.chain, r, "in' ");
      CurState& st = cur_[r];
      if (st.stmt == stmt_) continue;  // a repeated resource keeps the first
      st.stmt = stmt_;
      st.entry_main = entry;
      st.main = entry;
      st.chain = chain;
      st.pending_acks.clear();
    }
  }

  /// Permission source for a read of resource r.
  PortRef read_perm(Resource r) {
    CurState& st = state_of(r);
    return opt_.parallel_reads ? st.entry_main : st.main;
  }

  void note_read_ack(Resource r, PortRef ack) {
    CurState& st = state_of(r);
    if (opt_.parallel_reads) {
      st.pending_acks.push_back(ack);
    } else {
      st.main = ack;
    }
  }

  /// Collect outstanding parallel-read acks of r into st.main.
  void flush_reads(Resource r) {
    CurState& st = state_of(r);
    if (st.pending_acks.empty()) return;
    if (st.pending_acks.size() == 1) {
      st.main = st.pending_acks.front();
    } else {
      const dfg::NodeId sy = result_.graph.add_synch(
          static_cast<std::uint16_t>(st.pending_acks.size()),
          "reads " + res_name(r));
      for (std::size_t i = 0; i < st.pending_acks.size(); ++i)
        result_.graph.connect(st.pending_acks[i],
                              {sy, static_cast<std::uint16_t>(i)}, true);
      st.main = {sy, 0};
    }
    st.pending_acks.clear();
  }

  void flush_all_reads() {
    for (Resource r = 0; r < num_res_; ++r)
      if (touches(r)) flush_reads(r);
  }

  /// Wires a ValueSrc into a node input port (literal binding or arc).
  void wire_value(ValueSrc v, PortRef dst) {
    if (v.is_literal) {
      result_.graph.bind_literal(dst, v.literal);
    } else {
      result_.graph.connect(v.port, dst, false);
    }
  }

  /// Builds the access-set collection for a memory op: the synch tree
  /// that gathers access_{[x]} (Fig. 13), or a single arc.
  void wire_permission(const std::vector<Resource>& rs, PortRef dst,
                       bool for_read) {
    dfg::Graph& g = result_.graph;
    if (rs.size() == 1) {
      const Resource r = rs.front();
      const PortRef src = for_read ? read_perm(r) : state_of(r).main;
      g.connect(src, dst, true);
      return;
    }
    const dfg::NodeId sy =
        g.add_synch(static_cast<std::uint16_t>(rs.size()), "access-set");
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const Resource r = rs[i];
      const PortRef src = for_read ? read_perm(r) : state_of(r).main;
      g.connect(src, {sy, static_cast<std::uint16_t>(i)}, true);
    }
    g.connect({sy, 0}, dst, true);
  }

  ValueSrc read_scalar(VarId v) {
    const auto& rs = cover_.access_set(v);
    if (rs.size() == 1 && classes_.eliminated[rs.front()])
      return ValueSrc::of(state_of(rs.front()).main);

    LoadedScalar& loaded = loads_[v.index()];
    if (loaded.stmt == stmt_) return ValueSrc::of(loaded.value);

    dfg::Graph& g = result_.graph;
    const dfg::NodeId ld = g.add_load(
        static_cast<std::uint32_t>(layout_.base(v)), prog_.symbols.name(v));
    wire_permission(rs, {ld, 0}, /*for_read=*/true);
    for (Resource r : rs) note_read_ack(r, {ld, dfg::port::kLoadAck});
    const PortRef value{ld, dfg::port::kLoadValue};
    loaded = {stmt_, value};
    return ValueSrc::of(value);
  }

  ValueSrc read_array(NodeId n, VarId a, ValueSrc index) {
    dfg::Graph& g = result_.graph;
    const auto& rs = cover_.access_set(a);
    const auto base = static_cast<std::uint32_t>(layout_.base(a));
    const auto extent = static_cast<std::int64_t>(layout_.extent(a));

    if (rs.size() == 1 && classes_.istructure[rs.front()]) {
      const dfg::NodeId f =
          g.add_ifetch(base, extent, prog_.symbols.name(a) + "[]");
      wire_value(index, {f, 0});
      // Trigger only (no serialization, no ack): reads of I-structure
      // cells defer in memory until the write arrives.
      g.connect(state_of(rs.front()).main, {f, 1}, true);
      return ValueSrc::of(PortRef{f, 0});
    }
    CTDF_ASSERT_MSG(rs.size() != 1 || !split_at(n, rs.front()),
                    "array read inside a store-parallelized loop "
                    "(qualification should have rejected this)");

    const dfg::NodeId ld =
        g.add_load_idx(base, extent, prog_.symbols.name(a) + "[]");
    wire_value(index, {ld, 0});
    wire_permission(rs, {ld, 1}, /*for_read=*/true);
    for (Resource r : rs) note_read_ack(r, {ld, dfg::port::kLoadAck});
    return ValueSrc::of(PortRef{ld, dfg::port::kLoadValue});
  }

  ValueSrc build_expr(NodeId n, const lang::Expr& e) {
    switch (e.kind) {
      case lang::Expr::Kind::kConst:
        return ValueSrc::lit(e.value);
      case lang::Expr::Kind::kVar:
        return read_scalar(e.var);
      case lang::Expr::Kind::kArrayRef:
        return read_array(n, e.var, build_expr(n, *e.lhs));
      case lang::Expr::Kind::kUnary: {
        const ValueSrc v = build_expr(n, *e.lhs);
        if (v.is_literal)
          return ValueSrc::lit(lang::eval_unop(e.uop, v.literal));
        const dfg::NodeId op = result_.graph.add_unop(e.uop);
        wire_value(v, {op, 0});
        return ValueSrc::of(PortRef{op, 0});
      }
      case lang::Expr::Kind::kBinary: {
        const ValueSrc l = build_expr(n, *e.lhs);
        const ValueSrc r = build_expr(n, *e.rhs);
        if (l.is_literal && r.is_literal)
          return ValueSrc::lit(lang::eval_binop(e.bop, l.literal, r.literal));
        const dfg::NodeId op = result_.graph.add_binop(e.bop);
        wire_value(l, {op, 0});
        wire_value(r, {op, 1});
        return ValueSrc::of(PortRef{op, 0});
      }
    }
    CTDF_UNREACHABLE("bad Expr::Kind");
  }

  void write_lvalue(NodeId n, const lang::LValue& lv,
                    ValueSrc value, ValueSrc index) {
    dfg::Graph& g = result_.graph;
    const VarId v = lv.var;
    const auto& rs = cover_.access_set(v);
    const auto base = static_cast<std::uint32_t>(layout_.base(v));
    const auto extent = static_cast<std::int64_t>(layout_.extent(v));

    // Memory-eliminated scalar: the new value becomes the token.
    if (rs.size() == 1 && classes_.eliminated[rs.front()]) {
      CurState& st = state_of(rs.front());
      if (value.is_literal) {
        const dfg::NodeId gate = g.add_gate(prog_.symbols.name(v) + ":=" +
                                            std::to_string(value.literal));
        g.bind_literal({gate, 0}, value.literal);
        g.connect(st.main, {gate, 1}, false);  // consume the old token
        st.main = {gate, 0};
      } else {
        st.main = value.port;
      }
      return;
    }

    // I-structure array: concurrent write, ack joins the chain.
    if (rs.size() == 1 && classes_.istructure[rs.front()]) {
      CurState& st = state_of(rs.front());
      const dfg::NodeId istore =
          g.add_istore(base, extent, prog_.symbols.name(v) + "[]!");
      wire_value(value, {istore, 0});
      wire_value(index, {istore, 1});
      g.connect(st.main, {istore, 2}, true);  // trigger, not consumed
      const dfg::NodeId sy = g.add_synch(2, "chain " + res_name(rs.front()));
      g.connect(st.chain, {sy, 0}, true);
      g.connect({istore, 0}, {sy, 1}, true);
      st.chain = {sy, 0};
      return;
    }

    // Fig. 14 store-parallelized array inside its marked loop: the go
    // token is replicated (no serialization between iterations' stores);
    // completion accumulates on the chain.
    if (rs.size() == 1 && split_at(n, rs.front())) {
      CurState& st = state_of(rs.front());
      const dfg::NodeId store =
          g.add_store_idx(base, extent, prog_.symbols.name(v) + "[]*");
      wire_value(value, {store, 0});
      wire_value(index, {store, 1});
      g.connect(st.main, {store, 2}, true);  // dup of go, main unchanged
      const dfg::NodeId sy = g.add_synch(2, "chain " + res_name(rs.front()));
      g.connect(st.chain, {sy, 0}, true);
      g.connect({store, 0}, {sy, 1}, true);
      st.chain = {sy, 0};
      return;
    }

    // Ordinary store: collect the access set (after this statement's
    // reads of those resources), write, thread the acks onward.
    for (Resource r : rs) flush_reads(r);
    dfg::NodeId store;
    if (lv.is_array_elem()) {
      store = g.add_store_idx(base, extent, prog_.symbols.name(v) + "[]");
      wire_value(value, {store, 0});
      wire_value(index, {store, 1});
      wire_permission(rs, {store, 2}, /*for_read=*/false);
    } else {
      store = g.add_store(base, prog_.symbols.name(v));
      wire_value(value, {store, 0});
      wire_permission(rs, {store, 1}, /*for_read=*/false);
    }
    for (Resource r : rs) state_of(r).main = {store, 0};
  }

  void build_statement(NodeId n) {
    dfg::Graph& g = result_.graph;
    const cfg::Node& node = cfg_.node(n);
    init_statement(n);

    if (node.kind == cfg::NodeKind::kAssign) {
      const ValueSrc value = build_expr(n, *node.rhs);
      ValueSrc index;
      if (node.lhs->is_array_elem()) index = build_expr(n, *node.lhs->index);
      write_lvalue(n, *node.lhs, value, index);
      flush_all_reads();
      const NodeId succ = node.succ_true;
      for (Resource r : sv_.uses[n]) {
        CurState& st = state_of(r);
        Comp out;
        out.main.push_back(st.main);
        if (st.chain.valid()) out.chain.push_back(st.chain);
        propagate(succ, r, out);
      }
      for (Resource r = 0; r < num_res_; ++r) {
        if (touches(r)) continue;
        propagate(succ, r, incoming(n, r));
      }
      return;
    }

    // Fork: evaluate the predicate, then switch every access token that
    // needs routing here; everything else bypasses to the immediate
    // postdominator (Sec. 4).
    const ValueSrc pred = build_expr(n, *node.pred);
    flush_all_reads();

    const NodeId succ_t = node.succ_true;
    const NodeId succ_f = node.succ_false;
    const NodeId ipdom = pdom_.idom(n);

    const auto add_switch = [&](PortRef data, Resource r,
                                const char* tag) -> dfg::NodeId {
      const dfg::NodeId sw = g.add_switch("sw" + std::string(tag) + " " +
                                          res_name(r));
      g.connect(data, {sw, dfg::port::kSwitchData}, arc_dummy(r));
      wire_value(pred, {sw, dfg::port::kSwitchPred});
      return sw;
    };

    for (Resource r = 0; r < num_res_; ++r) {
      const bool used = touches(r);
      if (sv_.placement.needs_switch(n, r)) {
        if (!used && incoming(n, r).empty()) {
          // Conservative placement marked this fork, but no token is
          // actually routed through it (it can only happen when the
          // placement over-approximates reachability).
          continue;
        }
        PortRef main;
        PortRef chain;
        if (used) {
          CurState& st = state_of(r);
          main = st.main;
          chain = st.chain;
        } else {
          const Comp& in = incoming(n, r);
          main = coalesce(in.main, r, "sw-in ");
          if (!in.chain.empty()) chain = coalesce(in.chain, r, "sw-in' ");
        }
        const dfg::NodeId sw = add_switch(main, r, "");
        Comp out_t, out_f;
        out_t.main.push_back({sw, dfg::port::kSwitchTrue});
        out_f.main.push_back({sw, dfg::port::kSwitchFalse});
        if (chain.valid()) {
          const dfg::NodeId swc = add_switch(chain, r, "'");
          out_t.chain.push_back({swc, dfg::port::kSwitchTrue});
          out_f.chain.push_back({swc, dfg::port::kSwitchFalse});
        }
        propagate(succ_t, r, out_t);
        propagate(succ_f, r, out_f);
      } else if (used) {
        CurState& st = state_of(r);
        Comp out;
        out.main.push_back(st.main);
        if (st.chain.valid()) out.chain.push_back(st.chain);
        propagate(ipdom, r, out);
      } else {
        propagate(ipdom, r, incoming(n, r));
      }
    }
  }

  // --- members ---------------------------------------------------------------

  const lang::Program& prog_;
  const TranslateOptions& opt_;  ///< already normalized by the orchestrator
  support::DiagnosticEngine& diags_;
  const lang::StorageLayout& layout_;

  const cfg::Graph& cfg_;
  const cfg::LoopInfo& loops_;
  const Cover& cover_;
  const ResourceClasses& classes_;
  const SourceVectors& sv_;
  const cfg::DomTree& pdom_;
  std::size_t num_res_;

  support::GraphAlgo<NodeId> order_;  ///< the CFG's DFS order
  std::vector<Comp> incoming_;  ///< nodes x resources, node-major
  std::vector<Sink> sinks_;     ///< nodes x resources, node-major
  std::vector<bool> processed_;

  std::uint32_t stmt_ = 0;            ///< stamp of the current statement
  std::vector<CurState> cur_;         ///< by resource
  std::vector<LoadedScalar> loads_;   ///< by variable
  std::vector<std::pair<Resource, bool>> slots_;  ///< loop node port layout

  Translation& result_;
};

}  // namespace

namespace detail {

void build_graph(const lang::Program& prog, const TranslateOptions& options,
                 support::DiagnosticEngine& diags,
                 const lang::StorageLayout& layout, const cfg::Graph& cfg,
                 const cfg::LoopInfo& loops, const Cover& cover,
                 const ResourceClasses& classes, const SourceVectors& sv,
                 const cfg::DomTree& pdom, Translation& result) {
  Builder(prog, options, diags, layout, cfg, loops, cover, classes, sv, pdom,
          result)
      .build();
}

}  // namespace detail

}  // namespace ctdf::translate
