#include "machine/faults.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/hash.hpp"
#include "support/parse.hpp"

namespace ctdf::machine {
namespace {

// Salts separating the independent decision streams drawn from one id.
constexpr std::uint32_t kDropSalt = 0x1000;    // + attempt number
constexpr std::uint32_t kNackSalt = 0x2000;    // + attempt number
constexpr std::uint32_t kJitterSalt = 0x3001;
constexpr std::uint32_t kJitterAmount = 0x3002;
constexpr std::uint32_t kDupSalt = 0x3003;
constexpr std::uint32_t kDupSpread = 0x3004;

}  // namespace

const char* code_slug(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kDeadlock: return "deadlock";
    case ErrorCode::kSlotCollision: return "slot-collision";
    case ErrorCode::kCycleCap: return "cycle-cap";
    case ErrorCode::kFrameExhausted: return "frame-exhausted";
    case ErrorCode::kRetryExhausted: return "retry-exhausted";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kTokenBudget: return "token-budget";
    case ErrorCode::kIStoreDoubleWrite: return "istore-double-write";
    case ErrorCode::kStoreInFlight: return "store-in-flight";
    case ErrorCode::kIntegrityDoubleWrite: return "integrity/double-write";
    case ErrorCode::kIntegrityReadEmpty: return "integrity/read-empty";
    case ErrorCode::kIntegrityMemRace: return "integrity/mem-race";
    case ErrorCode::kIntegrityOrphanResponse:
      return "integrity/orphan-response";
  }
  return "none";
}

std::uint64_t backoff_delay(const FaultPlan& plan, unsigned attempt) {
  const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0u, 30u);
  const std::uint64_t raw = std::uint64_t{std::max(plan.backoff_base, 1u)}
                            << shift;
  return std::max<std::uint64_t>(
      std::min<std::uint64_t>(raw, std::max(plan.backoff_cap, 1u)), 1);
}

std::uint64_t max_fault_delay(const FaultPlan& plan) {
  if (!plan.enabled()) return 0;
  std::uint64_t ladder = 0;
  for (unsigned a = 1; a < std::max(plan.max_attempts, 1u); ++a)
    ladder += backoff_delay(plan, a);
  // + max jitter (1..4) + max duplicate spread over the original (1..3).
  return ladder + 4 + 3;
}

std::string parse_fault_spec(const std::string& spec, FaultPlan& plan) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      return "fault spec item '" + item + "' is not key=value";
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    if (key == "drop" || key == "dup" || key == "jitter" || key == "nack") {
      const double rate = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0)
        return "fault rate '" + key + "=" + value + "' must be in [0,1]";
      if (key == "drop") plan.drop = rate;
      else if (key == "dup") plan.dup = rate;
      else if (key == "jitter") plan.jitter = rate;
      else plan.nack = rate;
    } else if (key == "attempts" || key == "backoff" || key == "cap" ||
               key == "watchdog") {
      unsigned long long n = 0;
      if (!support::parse_unsigned(value, n))
        return "fault knob '" + key + "=" + value +
               "' must be a non-negative integer";
      if (key == "attempts") {
        if (n == 0) return "fault knob 'attempts' must be at least 1";
        plan.max_attempts = static_cast<unsigned>(std::min(n, 64ull));
      } else if (key == "backoff") {
        plan.backoff_base = static_cast<unsigned>(std::min(n, 1ull << 16));
      } else if (key == "cap") {
        plan.backoff_cap = static_cast<unsigned>(std::min(n, 1ull << 20));
      } else {
        plan.watchdog_steps = n;
      }
    } else {
      return "unknown fault spec key '" + key +
             "' (expected drop/dup/jitter/nack/attempts/backoff/cap/"
             "watchdog)";
    }
  }
  if (plan.backoff_cap < plan.backoff_base)
    return "fault spec: cap must be >= backoff";
  return {};
}

std::uint64_t FaultState::mix(std::uint64_t id, std::uint32_t salt) const {
  // SplitMix64 finalizer over (seed, id, salt): a full-period avalanche
  // keeps the decision streams independent across salts and ids.
  const std::uint64_t z = plan_.seed ^ (id * support::kGoldenGamma) ^
                          (std::uint64_t{salt} << 32);
  return support::splitmix64_mix(z + support::kGoldenGamma);
}

bool FaultState::roll(std::uint64_t id, std::uint32_t salt,
                      double rate) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const double u =
      static_cast<double>(mix(id, salt) >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultState::Transit FaultState::transit(std::uint64_t id) const {
  Transit t;
  for (unsigned attempt = 1; roll(id, kDropSalt + attempt, plan_.drop);
       ++attempt) {
    if (attempt >= plan_.max_attempts) {
      t.exhausted = true;
      return t;
    }
    t.delay += backoff_delay(plan_, attempt);
    ++t.drops;
  }
  if (roll(id, kJitterSalt, plan_.jitter)) {
    t.delay += 1 + mix(id, kJitterAmount) % 4;
    t.jitters = 1;
  }
  if (roll(id, kDupSalt, plan_.dup)) {
    t.duplicated = true;
    t.dup_delay = t.delay + 1 + mix(id, kDupSpread) % 3;
  }
  return t;
}

FaultState::Nack FaultState::nack(std::uint64_t id) const {
  Nack n;
  for (unsigned attempt = 1; roll(id, kNackSalt + attempt, plan_.nack);
       ++attempt) {
    if (attempt >= plan_.max_attempts) {
      n.exhausted = true;
      return n;
    }
    n.delay += backoff_delay(plan_, attempt);
    ++n.nacks;
  }
  return n;
}

}  // namespace ctdf::machine
