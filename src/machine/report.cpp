#include "machine/report.hpp"

#include <algorithm>
#include <sstream>

#include "dfg/graph.hpp"

namespace ctdf::machine {

std::string render_report(const RunStats& stats) {
  std::ostringstream os;
  if (!stats.completed) {
    os << "run FAILED";
    if (stats.error_detail.code != ErrorCode::kNone)
      os << " [" << code_slug(stats.error_detail.code) << "]";
    os << ": " << stats.error_detail.render() << "\n";
    return os.str();
  }
  os << "cycles                " << stats.cycles << "\n";
  os << "operators fired       " << stats.ops_fired << " ("
     << static_cast<double>(stats.ops_fired) /
            static_cast<double>(std::max<std::uint64_t>(1, stats.cycles))
     << " per cycle)\n";
  os << "tokens sent           " << stats.tokens_sent << " ("
     << stats.matches << " matched in frames)\n";
  os << "iteration contexts    " << stats.contexts_allocated << "\n";
  os << "memory                " << stats.mem_reads << " reads, "
     << stats.mem_writes << " writes";
  if (stats.deferred_reads)
    os << " (" << stats.deferred_reads << " deferred I-structure reads)";
  os << "\n";
  os << "peak ready operators  " << stats.peak_ready << "\n";
  if (stats.integrity_checks)
    os << "integrity             " << stats.integrity_checks
       << " checks passed\n";
  if (stats.leftover_tokens)
    os << "drain tokens at end   " << stats.leftover_tokens << "\n";
  if (stats.backpressure_stalls)
    os << "backpressure stalls   " << stats.backpressure_stalls << "\n";

  os << "firings by kind      ";
  for (std::size_t k = 0; k < stats.fired_by_kind.size(); ++k) {
    if (stats.fired_by_kind[k] == 0) continue;
    os << ' ' << dfg::to_string(static_cast<dfg::OpKind>(k)) << '='
       << stats.fired_by_kind[k];
  }
  os << "\n";

  if (!stats.profile.empty()) {
    // Coarse timeline: bucket the profile into at most 64 columns and
    // render each as a height-8 sparkline character.
    static const char* kBars[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
    const std::size_t columns = std::min<std::size_t>(64, stats.profile.size());
    const std::size_t bucket =
        (stats.profile.size() + columns - 1) / columns;
    std::vector<double> avg;
    double peak = 0;
    for (std::size_t c = 0; c < columns; ++c) {
      double sum = 0;
      std::size_t n = 0;
      for (std::size_t i = c * bucket;
           i < std::min(stats.profile.size(), (c + 1) * bucket); ++i, ++n)
        sum += stats.profile[i];
      avg.push_back(n ? sum / static_cast<double>(n) : 0);
      peak = std::max(peak, avg.back());
    }
    os << "parallelism timeline  [";
    for (const double a : avg) {
      const int level =
          peak > 0 ? static_cast<int>(a / peak * 7.0 + 0.5) : 0;
      os << kBars[std::clamp(level, 0, 7)];
    }
    os << "] (peak " << peak << " ops/cycle, " << bucket
       << " cycles/column)\n";
  }
  return os.str();
}

void write_stats_json(support::JsonWriter& w, const RunStats& stats,
                      const MachineOptions& opt) {
  w.begin_block();
  w.key("options")
      .begin_object()
      .member("check", to_string(opt.check))
      .member("loop_mode", to_string(opt.loop_mode))
      .member("width", opt.width)
      .member("loop_bound", opt.loop_bound)
      .member("processors", opt.processors)
      .member("placement", to_string(opt.placement))
      .member("network_latency", opt.network_latency)
      .member("alu_latency", kAluLatency)
      .member("mem_latency", opt.mem_latency)
      .member("scheduler_seed", opt.scheduler_seed)
      .member("frame_capacity", opt.frame_capacity)
      .member("max_cycles", opt.budget.max_cycles)
      .member("deadline_ms", opt.budget.deadline_ms)
      .member("max_tokens", opt.budget.max_tokens)
      .end_object();
  w.member("completed", stats.completed);
  // Typed failure taxonomy, and the same failure as one flat string.
  w.key("error")
      .begin_object()
      .member("code", code_slug(stats.error_detail.code))
      .member("message", stats.error_detail.message)
      .member("diagnosis", stats.error_detail.diagnosis)
      .end_object();
  w.member("error_string", stats.error_detail.render())
      .member("cycles", stats.cycles)
      .member("ops_fired", stats.ops_fired)
      .member("tokens_sent", stats.tokens_sent)
      .member("matches", stats.matches)
      .member("contexts_allocated", stats.contexts_allocated)
      .member("mem_reads", stats.mem_reads)
      .member("mem_writes", stats.mem_writes)
      .member("peak_live_contexts", stats.peak_live_contexts)
      .member("throttle_stalls", stats.throttle_stalls)
      .member("deferred_reads", stats.deferred_reads)
      .member("peak_ready", stats.peak_ready)
      .member("leftover_tokens", stats.leftover_tokens)
      .member("backpressure_stalls", stats.backpressure_stalls)
      .member("integrity_checks", stats.integrity_checks)
      .member("avg_parallelism", stats.avg_parallelism());
  w.key("fired_by_kind").begin_object();
  for (std::size_t k = 0; k < stats.fired_by_kind.size(); ++k)
    if (stats.fired_by_kind[k] != 0)
      w.member(dfg::to_string(static_cast<dfg::OpKind>(k)),
               stats.fired_by_kind[k]);
  w.end_object().end_object();
}

std::string render_stats_json(const RunStats& stats,
                              const MachineOptions& opt) {
  std::string out;
  support::JsonWriter w(out, support::JsonWriter::Layout::kMultiLine);
  write_stats_json(w, stats, opt);
  return out;
}

}  // namespace ctdf::machine
