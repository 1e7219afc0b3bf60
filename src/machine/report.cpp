#include "machine/report.hpp"

#include <algorithm>
#include <cstdio>
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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_stats_json(const RunStats& stats,
                              const MachineOptions& opt) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"options\": {"
     << "\"check\": \"" << to_string(opt.check) << "\", "
     << "\"loop_mode\": \"" << to_string(opt.loop_mode) << "\", "
     << "\"width\": " << opt.width << ", "
     << "\"loop_bound\": " << opt.loop_bound << ", "
     << "\"processors\": " << opt.processors << ", "
     << "\"placement\": \"" << to_string(opt.placement) << "\", "
     << "\"network_latency\": " << opt.network_latency << ", "
     << "\"alu_latency\": " << opt.alu_latency << ", "
     << "\"mem_latency\": " << opt.mem_latency << ", "
     << "\"scheduler_seed\": " << opt.scheduler_seed << ", "
     << "\"frame_capacity\": " << opt.frame_capacity << ", "
     << "\"max_cycles\": " << opt.budget.max_cycles << ", "
     << "\"deadline_ms\": " << opt.budget.deadline_ms << ", "
     << "\"max_tokens\": " << opt.budget.max_tokens << "},\n";
  os << "  \"completed\": " << (stats.completed ? "true" : "false") << ",\n";
  // Typed failure taxonomy, and the same failure as one flat string.
  os << "  \"error\": {\"code\": \"" << code_slug(stats.error_detail.code)
     << "\", \"message\": \"" << json_escape(stats.error_detail.message)
     << "\", \"diagnosis\": \"" << json_escape(stats.error_detail.diagnosis)
     << "\"},\n";
  os << "  \"error_string\": \""
     << json_escape(stats.error_detail.render()) << "\",\n";
  os << "  \"cycles\": " << stats.cycles << ",\n";
  os << "  \"ops_fired\": " << stats.ops_fired << ",\n";
  os << "  \"tokens_sent\": " << stats.tokens_sent << ",\n";
  os << "  \"matches\": " << stats.matches << ",\n";
  os << "  \"contexts_allocated\": " << stats.contexts_allocated << ",\n";
  os << "  \"mem_reads\": " << stats.mem_reads << ",\n";
  os << "  \"mem_writes\": " << stats.mem_writes << ",\n";
  os << "  \"peak_live_contexts\": " << stats.peak_live_contexts << ",\n";
  os << "  \"throttle_stalls\": " << stats.throttle_stalls << ",\n";
  os << "  \"deferred_reads\": " << stats.deferred_reads << ",\n";
  os << "  \"peak_ready\": " << stats.peak_ready << ",\n";
  os << "  \"leftover_tokens\": " << stats.leftover_tokens << ",\n";
  os << "  \"backpressure_stalls\": " << stats.backpressure_stalls << ",\n";
  os << "  \"integrity_checks\": " << stats.integrity_checks << ",\n";
  os << "  \"avg_parallelism\": " << stats.avg_parallelism() << ",\n";
  os << "  \"fired_by_kind\": {";
  bool first = true;
  for (std::size_t k = 0; k < stats.fired_by_kind.size(); ++k) {
    if (stats.fired_by_kind[k] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << dfg::to_string(static_cast<dfg::OpKind>(k)) << "\": "
       << stats.fired_by_kind[k];
  }
  os << "}\n}";
  return os.str();
}

}  // namespace ctdf::machine
