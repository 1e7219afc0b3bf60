#include "translate/stages.hpp"

#include <chrono>
#include <sstream>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dataflow.hpp"
#include "cfg/dominance.hpp"
#include "cfg/intervals.hpp"
#include "cfg/ssa.hpp"
#include "dfg/pass_manager.hpp"
#include "dfg/passes.hpp"
#include "support/assert.hpp"
#include "support/index_map.hpp"
#include "translate/build_graph.hpp"
#include "translate/classify.hpp"
#include "translate/source_vectors.hpp"

namespace ctdf::translate {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kParse: return "parse";
    case Stage::kCfgBuild: return "cfg-build";
    case Stage::kDse: return "dse";
    case Stage::kLoopTransform: return "loop-transform";
    case Stage::kCover: return "cover";
    case Stage::kSsa: return "ssa";
    case Stage::kDominance: return "dominance";
    case Stage::kControlDep: return "control-dep";
    case Stage::kSwitchPlace: return "switch-place";
    case Stage::kTranslate: return "translate";
    case Stage::kOptimize: return "optimize";
    case Stage::kFanout: return "fanout";
    case Stage::kValidate: return "validate";
    case Stage::kLower: return "lower";
  }
  CTDF_UNREACHABLE("bad Stage");
}

const std::vector<Stage>& all_stages() {
  static const std::vector<Stage> stages = [] {
    std::vector<Stage> v;
    for (std::size_t i = 0; i < kNumStages; ++i)
      v.push_back(static_cast<Stage>(i));
    return v;
  }();
  return stages;
}

std::optional<Stage> stage_from_name(std::string_view name) {
  for (Stage s : all_stages())
    if (name == to_string(s)) return s;
  return std::nullopt;
}

std::int64_t StageRecord::counter(std::string_view name) const {
  for (const auto& [k, v] : counters)
    if (k == name) return v;
  return -1;
}

const StageRecord* PipelineTrace::find(Stage s) const {
  for (const StageRecord& r : stages)
    if (r.stage == s) return &r;
  return nullptr;
}

std::int64_t PipelineTrace::total_nanos() const {
  std::int64_t total = 0;
  for (const StageRecord& r : stages) total += r.nanos;
  return total;
}

std::string PipelineTrace::table() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-15s %10s %16s %7s  %s\n", "stage",
                "time(us)", "artifact", "delta", "stats");
  os << line;
  for (const StageRecord& r : stages) {
    if (!r.ran) {
      std::snprintf(line, sizeof(line), "%-15s %10s %16s %7s\n",
                    to_string(r.stage), "-", "-", "-");
      os << line;
      continue;
    }
    char size[32];
    std::snprintf(size, sizeof(size), "%zu -> %zu", r.size_in, r.size_out);
    const auto delta = static_cast<std::int64_t>(r.size_out) -
                       static_cast<std::int64_t>(r.size_in);
    char delta_s[16];
    std::snprintf(delta_s, sizeof(delta_s), "%+lld",
                  static_cast<long long>(delta));
    std::snprintf(line, sizeof(line), "%-15s %10.1f %16s %7s  ",
                  to_string(r.stage),
                  static_cast<double>(r.nanos) / 1000.0, size, delta_s);
    os << line;
    bool first = true;
    for (const auto& [k, v] : r.counters) {
      os << (first ? "" : " ") << k << "=" << v;
      first = false;
    }
    os << "\n";
  }
  std::snprintf(line, sizeof(line), "%-15s %10.1f\n", "total",
                static_cast<double>(total_nanos()) / 1000.0);
  os << line;
  return os.str();
}

std::string PipelineTrace::summary() const {
  std::ostringstream os;
  for (const StageRecord& r : stages) {
    os << to_string(r.stage);
    if (!r.ran) {
      os << ": skipped\n";
      continue;
    }
    os << ": " << r.size_in << " -> " << r.size_out;
    for (const auto& [k, v] : r.counters) os << " " << k << "=" << v;
    os << "\n";
  }
  return os.str();
}

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t nanos_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Appends records to the trace and stores the requested dump (either
/// may be absent), and tracks which stages have been reported so the
/// tail can be marked skipped on an early error exit.
class Reporter {
 public:
  Reporter(PipelineTrace* trace, std::optional<Stage> dump_after,
           std::string* dump)
      : trace_(trace), dump_after_(dump ? dump_after : std::nullopt),
        dump_(dump) {}

  void emit(StageRecord r) {
    reported_[static_cast<std::size_t>(r.stage)] = true;
    if (trace_) trace_->stages.push_back(std::move(r));
  }

  void skip(Stage s) {
    StageRecord r;
    r.stage = s;
    r.ran = false;
    emit(std::move(r));
  }

  /// Marks every not-yet-reported stage as skipped (early error exit).
  void skip_rest() {
    for (Stage s : all_stages())
      if (!reported_[static_cast<std::size_t>(s)]) skip(s);
  }

  [[nodiscard]] bool wants_dump(Stage s) const { return dump_after_ == s; }
  void dump(std::string artifact) { *dump_ = std::move(artifact); }

 private:
  PipelineTrace* trace_;
  std::optional<Stage> dump_after_;
  std::string* dump_;
  bool reported_[kNumStages] = {};
};

std::string render_dominance(const cfg::Graph& cfg, const cfg::DomTree& dom) {
  std::ostringstream os;
  os << "postdominators (node: ipostdom)\n";
  for (cfg::NodeId n : cfg.all_nodes()) {
    os << "  " << n.index() << " [" << to_string(cfg.kind(n)) << "]: ";
    if (n == dom.root())
      os << "root";
    else
      os << dom.idom(n).index();
    os << "\n";
  }
  return os.str();
}

std::string render_control_deps(const cfg::Graph& cfg,
                                const cfg::ControlDeps& cd) {
  std::ostringstream os;
  os << "control dependence (node: fork/direction ...)\n";
  for (cfg::NodeId n : cfg.all_nodes()) {
    os << "  " << n.index() << " [" << to_string(cfg.kind(n)) << "]:";
    for (const cfg::ControlDep& d : cd.deps(n))
      os << " " << d.fork.index() << "/" << (d.direction ? "T" : "F");
    os << "\n";
  }
  return os.str();
}

std::string render_cover(const lang::Program& prog, const Cover& cover,
                         const ResourceClasses& classes) {
  std::ostringstream os;
  os << "cover elements (resource: variables [classification])\n";
  for (Resource r = 0; r < cover.size(); ++r) {
    os << "  " << r << ": " << cover.name(r, prog.symbols);
    if (classes.eliminated[r]) os << " [mem-elim]";
    if (classes.istructure[r]) os << " [istructure]";
    os << "\n";
  }
  os << "fig14 store-parallelized loops: "
     << classes.loops_store_parallelized << "\n";
  return os.str();
}

std::string render_ssa(const lang::Program& prog, const cfg::Graph& cfg,
                       const cfg::PhiPlacement& minimal,
                       const cfg::PhiPlacement& pruned) {
  std::ostringstream os;
  os << "phi placement (node: minimal | pruned)\n";
  for (cfg::NodeId n : cfg.all_nodes()) {
    if (minimal.phis[n].empty() && pruned.phis[n].empty()) continue;
    os << "  " << n.index() << ":";
    for (lang::VarId v : minimal.phis[n]) os << " " << prog.symbols.name(v);
    os << " |";
    for (lang::VarId v : pruned.phis[n]) os << " " << prog.symbols.name(v);
    os << "\n";
  }
  os << "total: minimal=" << minimal.total << " pruned=" << pruned.total
     << "\n";
  return os.str();
}

std::string render_switch_place(const cfg::Graph& cfg,
                                const lang::Program& prog, const Cover& cover,
                                const SourceVectors& sv,
                                std::size_t num_res) {
  std::ostringstream os;
  os << "switch placement (fork: resources)\n";
  for (cfg::NodeId n : cfg.all_nodes()) {
    if (cfg.kind(n) != cfg::NodeKind::kFork) continue;
    os << "  " << n.index() << ":";
    for (Resource r = 0; r < num_res; ++r)
      if (sv.placement.needs_switch(n, r))
        os << " " << cover.name(r, prog.symbols);
    os << "\n";
  }
  return os.str();
}

std::size_t count_edges(const cfg::Graph& cfg) {
  std::size_t edges = 0;
  for (cfg::NodeId n : cfg.all_nodes()) edges += cfg.succs(n).size();
  return edges;
}

}  // namespace

Translation run_stages(const lang::Program& prog,
                       const TranslateOptions& options,
                       support::DiagnosticEngine& diags, PipelineTrace* trace,
                       std::optional<Stage> dump_after, std::string* dump,
                       bool ssa) {
  const TranslateOptions opt = options.normalized();
  Translation result;
  Reporter rep(trace, dump_after, dump);

  // --- cfg-build ------------------------------------------------------
  auto t0 = Clock::now();
  cfg::Graph cfg = cfg::build_cfg(prog, diags);
  {
    StageRecord r;
    r.stage = Stage::kCfgBuild;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_out = cfg.size();
    r.counters = {{"nodes", static_cast<std::int64_t>(cfg.size())},
                  {"edges", static_cast<std::int64_t>(count_edges(cfg))}};
    rep.emit(std::move(r));
  }
  if (diags.has_errors()) {
    rep.skip_rest();
    return result;
  }
  if (rep.wants_dump(Stage::kCfgBuild))
    rep.dump(cfg.to_dot(prog.symbols));

  // --- dse ------------------------------------------------------------
  if (opt.dead_store_elimination) {
    t0 = Clock::now();
    result.dead_stores_removed = cfg::eliminate_dead_stores(cfg, prog.symbols);
    StageRecord r;
    r.stage = Stage::kDse;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = cfg.size();
    r.counters = {
        {"removed", static_cast<std::int64_t>(result.dead_stores_removed)}};
    rep.emit(std::move(r));
    if (rep.wants_dump(Stage::kDse))
      rep.dump(cfg.to_dot(prog.symbols));
  } else {
    rep.skip(Stage::kDse);
  }
  result.cfg_nodes = cfg.size();
  result.cfg_edges = count_edges(cfg);

  // --- loop-transform -------------------------------------------------
  cfg::LoopInfo loops;
  if (!opt.sequential) {
    const std::size_t before = cfg.size();
    t0 = Clock::now();
    loops = cfg::transform_loops(cfg, diags);
    StageRecord r;
    r.stage = Stage::kLoopTransform;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = before;
    r.size_out = cfg.size();
    r.counters = {
        {"loops", static_cast<std::int64_t>(loops.loops().size())},
        {"nodes-split", loops.nodes_split()}};
    rep.emit(std::move(r));
    if (diags.has_errors()) {
      rep.skip_rest();
      return result;
    }
    result.loops = loops.loops().size();
    result.nodes_split = loops.nodes_split();
    if (rep.wants_dump(Stage::kLoopTransform))
      rep.dump(cfg.to_dot(prog.symbols));
  } else {
    rep.skip(Stage::kLoopTransform);
  }

  // --- cover (cover assignment + resource classification) -------------
  t0 = Clock::now();
  const lang::StorageLayout layout(prog.symbols);
  const Cover cover = Cover::make(prog.symbols, opt.cover);
  const std::size_t num_res = cover.size();
  result.num_resources = num_res;
  const ResourceClasses classes =
      classify_resources(prog, opt, cover, cfg, loops, layout, diags);
  result.istructures = classes.istructure_regions;
  result.loops_store_parallelized = classes.loops_store_parallelized;
  {
    StageRecord r;
    r.stage = Stage::kCover;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_out = num_res;
    r.counters = {
        {"resources", static_cast<std::int64_t>(num_res)},
        {"eliminated", static_cast<std::int64_t>(classes.eliminated_count())},
        {"istructures",
         static_cast<std::int64_t>(classes.istructure_count())},
        {"fig14-loops",
         static_cast<std::int64_t>(classes.loops_store_parallelized)}};
    rep.emit(std::move(r));
  }
  if (rep.wants_dump(Stage::kCover))
    rep.dump(render_cover(prog, cover, classes));

  // --- ssa (reporting only; never affects the produced graph) ---------
  if (ssa) {
    t0 = Clock::now();
    const cfg::PhiPlacement minimal =
        cfg::place_phis(cfg, prog.symbols, /*pruned=*/false);
    const cfg::PhiPlacement pruned =
        cfg::place_phis(cfg, prog.symbols, /*pruned=*/true);
    StageRecord r;
    r.stage = Stage::kSsa;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = cfg.size();
    r.counters = {
        {"phis-minimal", static_cast<std::int64_t>(minimal.total)},
        {"phis-pruned", static_cast<std::int64_t>(pruned.total)}};
    rep.emit(std::move(r));
    if (rep.wants_dump(Stage::kSsa))
      rep.dump(render_ssa(prog, cfg, minimal, pruned));
  } else {
    rep.skip(Stage::kSsa);
  }

  // --- dominance ------------------------------------------------------
  t0 = Clock::now();
  const cfg::DomTree pdom(cfg, cfg::DomDirection::kPostdom);
  {
    StageRecord r;
    r.stage = Stage::kDominance;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = cfg.size();
    rep.emit(std::move(r));
  }
  if (rep.wants_dump(Stage::kDominance))
    rep.dump(render_dominance(cfg, pdom));

  // --- control-dep ----------------------------------------------------
  t0 = Clock::now();
  const cfg::ControlDeps cd(cfg, pdom);
  {
    std::size_t deps = 0;
    for (cfg::NodeId n : cfg.all_nodes()) deps += cd.deps(n).size();
    StageRecord r;
    r.stage = Stage::kControlDep;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = cfg.size();
    r.counters = {{"deps", static_cast<std::int64_t>(deps)}};
    rep.emit(std::move(r));
  }
  if (rep.wants_dump(Stage::kControlDep))
    rep.dump(render_control_deps(cfg, cd));

  // --- switch-place (source vectors + Fig. 10 fixpoint) ---------------
  t0 = Clock::now();
  const SourceVectors sv = compute_source_vectors(
      cfg, loops, cover, cd, num_res, opt.optimize_switches);
  result.switches_placed = sv.placement.total();
  {
    StageRecord r;
    r.stage = Stage::kSwitchPlace;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = cfg.size();
    r.counters = {
        {"switches", static_cast<std::int64_t>(result.switches_placed)},
        {"rounds", static_cast<std::int64_t>(sv.fixpoint_rounds)}};
    rep.emit(std::move(r));
  }
  if (rep.wants_dump(Stage::kSwitchPlace))
    rep.dump(render_switch_place(cfg, prog, cover, sv, num_res));

  // --- translate (fused Fig. 11 construction) -------------------------
  t0 = Clock::now();
  detail::build_graph(prog, opt, diags, layout, cfg, loops, cover, classes,
                      sv, pdom, result);
  {
    StageRecord r;
    r.stage = Stage::kTranslate;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = cfg.size();
    r.size_out = result.graph.num_nodes();
    r.counters = {
        {"nodes", static_cast<std::int64_t>(result.graph.num_nodes())},
        {"arcs", static_cast<std::int64_t>(result.graph.num_arcs())}};
    rep.emit(std::move(r));
  }
  if (diags.has_errors()) {
    rep.skip_rest();
    return result;
  }
  if (rep.wants_dump(Stage::kTranslate))
    rep.dump(result.graph.to_dot());

  // --- optimize (the dfg pass manager) --------------------------------
  if (opt.opt_level != dfg::OptLevel::kNone) {
    const std::size_t before = result.graph.num_nodes();
    t0 = Clock::now();
    const dfg::OptStats ps = dfg::run_passes(result.graph, opt.opt_level);
    result.post_opt_removed = ps.nodes_removed;
    StageRecord r;
    r.stage = Stage::kOptimize;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = before;
    r.size_out = result.graph.num_nodes();
    r.counters = {
        {"removed", static_cast<std::int64_t>(ps.nodes_removed)},
        {"switches-folded", static_cast<std::int64_t>(ps.switches_folded)},
        {"merges-collapsed",
         static_cast<std::int64_t>(ps.merges_collapsed)},
        {"dead", static_cast<std::int64_t>(ps.dead_removed)},
        {"unfireable", static_cast<std::int64_t>(ps.unfireable_removed)},
        {"const-folded", static_cast<std::int64_t>(ps.consts_folded)},
        {"switch-elim", static_cast<std::int64_t>(ps.switches_elim)},
        {"synch-narrowed", static_cast<std::int64_t>(ps.synchs_narrowed)},
        {"iterations", static_cast<std::int64_t>(ps.iterations)},
        {"max-loop-depth", static_cast<std::int64_t>(ps.max_loop_depth)}};
    if (opt.opt_level == dfg::OptLevel::kAll) {
      r.counters.emplace_back("chains-fused",
                              static_cast<std::int64_t>(ps.chains_fused));
      r.counters.emplace_back("fused-ops",
                              static_cast<std::int64_t>(ps.ops_fused));
      for (std::size_t i = 0; i < 6; ++i)
        r.counters.emplace_back(
            "fused-len-" + std::to_string(i + 2),
            static_cast<std::int64_t>(ps.fused_len_hist[i]));
      r.counters.emplace_back(
          "fused-len-8plus", static_cast<std::int64_t>(ps.fused_len_hist[6]));
    }
    rep.emit(std::move(r));
    if (rep.wants_dump(Stage::kOptimize))
      rep.dump(result.graph.to_dot());
  } else {
    rep.skip(Stage::kOptimize);
  }

  // --- fanout (replication-tree lowering) -----------------------------
  if (opt.max_fanout >= 2) {
    const std::size_t before = result.graph.num_nodes();
    t0 = Clock::now();
    result.replicates_inserted =
        dfg::lower_fanout(result.graph, opt.max_fanout);
    StageRecord r;
    r.stage = Stage::kFanout;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = before;
    r.size_out = result.graph.num_nodes();
    r.counters = {{"replicates",
                   static_cast<std::int64_t>(result.replicates_inserted)}};
    rep.emit(std::move(r));
    if (rep.wants_dump(Stage::kFanout))
      rep.dump(result.graph.to_dot());
  } else {
    rep.skip(Stage::kFanout);
  }

  result.memory_cells = layout.total_cells();

  // Record the bind-shared regions: one entry per storage-binding class
  // with several members, keyed by its representative in declaration
  // order so each range is reported once.
  const std::vector<lang::VarId> vars = prog.symbols.all_vars();
  support::IndexMap<lang::VarId, std::uint32_t> members(vars.size(), 0);
  for (const lang::VarId v : vars) ++members[prog.symbols.bind_root(v)];
  for (const lang::VarId v : vars)
    if (prog.symbols.bind_root(v) == v && members[v] > 1)
      result.shared_cells.push_back(
          {static_cast<std::uint32_t>(layout.base(v)),
           static_cast<std::uint32_t>(layout.extent(v))});

  // --- validate -------------------------------------------------------
  t0 = Clock::now();
  const auto problems = result.graph.validate();
  for (const auto& problem : problems)
    diags.error({}, "DFG validation: " + problem);
  {
    StageRecord r;
    r.stage = Stage::kValidate;
    r.ran = true;
    r.nanos = nanos_since(t0);
    r.size_in = r.size_out = result.graph.num_nodes();
    r.counters = {{"problems", static_cast<std::int64_t>(problems.size())}};
    rep.emit(std::move(r));
  }
  if (rep.wants_dump(Stage::kValidate))
    rep.dump(result.graph.to_dot());

  return result;
}

}  // namespace ctdf::translate
