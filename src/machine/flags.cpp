#include "machine/flags.hpp"

#include <string>

#include "support/parse.hpp"

namespace ctdf::machine {
namespace {

using support::parse_unsigned;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string value_of(const std::string& arg) {
  const auto eq = arg.find('=');
  return eq == std::string::npos ? "" : arg.substr(eq + 1);
}

/// Value-carrying unsigned flags that need no range restriction beyond
/// fitting the field.
template <typename T>
MachineFlagParse set_unsigned(const std::string& arg, T& field) {
  unsigned long long v = 0;
  if (!parse_unsigned(value_of(arg), v)) return MachineFlagParse::kBadValue;
  field = static_cast<T>(v);
  return MachineFlagParse::kApplied;
}

/// A flag bounded to [min, max]: the latencies (at most kMaxLatency,
/// so no run's event horizon can outgrow the calendar wheel,
/// machine.cpp) and the PE count (at most kMaxProcessors).
MachineFlagParse set_bounded(const std::string& arg, unsigned min,
                             unsigned max, unsigned& field,
                             std::string* detail) {
  unsigned long long v = 0;
  if (!parse_unsigned(value_of(arg), v)) return MachineFlagParse::kBadValue;
  if (v < min || v > max) {
    if (detail)
      *detail = "must be in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
    return MachineFlagParse::kBadValue;
  }
  field = static_cast<unsigned>(v);
  return MachineFlagParse::kApplied;
}

}  // namespace

MachineFlagParse apply_machine_flag(MachineOptions& o, const std::string& arg,
                                    std::string* detail) {
  if (detail) detail->clear();
  if (starts_with(arg, "--check=")) {
    const std::string v = value_of(arg);
    if (v == "off") {
      o.check = CheckMode::kOff;
    } else if (v == "integrity") {
      o.check = CheckMode::kIntegrity;
    } else {
      return MachineFlagParse::kBadValue;
    }
    return MachineFlagParse::kApplied;
  }
  if (starts_with(arg, "--width=")) return set_unsigned(arg, o.width);
  if (starts_with(arg, "--mem-latency="))
    return set_bounded(arg, 1, kMaxLatency, o.mem_latency, detail);
  if (starts_with(arg, "--processors="))
    return set_bounded(arg, 0, kMaxProcessors, o.processors, detail);
  if (starts_with(arg, "--network-latency="))
    return set_bounded(arg, 0, kMaxLatency, o.network_latency, detail);
  if (arg == "--place-by-node") {
    o.placement = Placement::kByNode;
    return MachineFlagParse::kApplied;
  }
  if (starts_with(arg, "--loop-bound=")) return set_unsigned(arg, o.loop_bound);
  if (arg == "--barrier") {
    o.loop_mode = LoopMode::kBarrier;
    return MachineFlagParse::kApplied;
  }
  if (starts_with(arg, "--sched-seed="))
    return set_unsigned(arg, o.scheduler_seed);
  if (starts_with(arg, "--max-cycles="))
    return set_unsigned(arg, o.budget.max_cycles);
  if (starts_with(arg, "--max-tokens="))
    return set_unsigned(arg, o.budget.max_tokens);
  if (starts_with(arg, "--deadline-ms=")) {
    // 0 is legal and means "already expired" (up-front rejection);
    // removing a deadline is the flag's absence, not a sentinel value.
    unsigned long long v = 0;
    if (!parse_unsigned(value_of(arg), v) || v > (1ull << 40))
      return MachineFlagParse::kBadValue;
    o.budget.deadline_ms = static_cast<std::int64_t>(v);
    return MachineFlagParse::kApplied;
  }
  if (starts_with(arg, "--frame-capacity="))
    return set_unsigned(arg, o.frame_capacity);
  return MachineFlagParse::kNotMachineFlag;
}

MachineOptions default_cli_machine_options() {
  MachineOptions o;
  o.loop_mode = LoopMode::kPipelined;
  return o;
}

}  // namespace ctdf::machine
