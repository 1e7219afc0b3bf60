// Run-budget coverage: the cooperative deadline and token ceilings
// (machine/budget.hpp) must produce the same typed error, with the same
// message text, under both pending-queue policies (machine::run and the
// scan reference), and an armed-but-generous budget must not perturb a
// run at all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/budget.hpp"
#include "machine/report.hpp"
#include "support/scan_reference.hpp"

namespace ctdf::machine {
namespace {

/// Never terminates: i stays 0, so the backedge is taken forever. The
/// only way out is a budget (deadline, token, or cycle ceiling).
constexpr const char* kSpinSource = R"(var x, i;
l:
  x := x + 1;
  if i < 1 then goto l else goto end;
)";

constexpr const char* kFiniteSource = R"(var x, y;
l:
  y := x + 1;
  x := x + 1;
  if x < 5 then goto l else goto end;
)";

/// The pending-queue policies the budget must cover.
struct Policy {
  const char* name;
  bool scan;
};
constexpr Policy kPolicies[] = {{"event", false}, {"scan", true}};

RunResult run_source(const char* source, const MachineOptions& mopt,
                     bool scan = false) {
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(source);
  return scan ? testing::run_scan(cr.image, mopt)
              : core::execute(cr.image, mopt);
}

TEST(MachineBudget, DeadlineExpiryIsTypedAndIdenticalUnderBothPolicies) {
  std::vector<std::string> messages;
  for (const Policy& cfg : kPolicies) {
    MachineOptions mopt;
    mopt.budget.deadline_ms = 30;
    const RunResult r = run_source(kSpinSource, mopt, cfg.scan);
    EXPECT_FALSE(r.stats.completed) << cfg.name;
    EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kDeadlineExceeded)
        << cfg.name << ": " << r.stats.error_detail.render();
    // Partial stats survive the expiry: the run did real work first.
    EXPECT_GT(r.stats.cycles, 0u) << cfg.name;
    EXPECT_GT(r.stats.ops_fired, 0u) << cfg.name;
    // The failed run still renders schema-complete JSON.
    const std::string json = render_stats_json(r.stats, mopt);
    EXPECT_NE(json.find("\"code\": \"deadline-exceeded\""), std::string::npos)
        << cfg.name << ":\n" << json;
    EXPECT_NE(json.find("\"completed\": false"), std::string::npos);
    messages.push_back(r.stats.error_detail.render());
  }
  for (std::size_t i = 1; i < messages.size(); ++i)
    EXPECT_EQ(messages[i], messages[0]) << kPolicies[i].name;
}

TEST(MachineBudget, TokenCeilingIsTypedAndIdenticalUnderBothPolicies) {
  std::vector<std::string> messages;
  for (const Policy& cfg : kPolicies) {
    MachineOptions mopt;
    mopt.budget.max_tokens = 1000;
    const RunResult r = run_source(kSpinSource, mopt, cfg.scan);
    EXPECT_FALSE(r.stats.completed) << cfg.name;
    EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kTokenBudget)
        << cfg.name << ": " << r.stats.error_detail.render();
    EXPECT_GT(r.stats.tokens_sent, 1000u) << cfg.name;
    messages.push_back(r.stats.error_detail.render());
  }
  for (std::size_t i = 1; i < messages.size(); ++i)
    EXPECT_EQ(messages[i], messages[0]) << kPolicies[i].name;
  EXPECT_EQ(messages[0],
            "token budget exceeded: more than 1000 token(s) sent "
            "(max-tokens)");
}

TEST(MachineBudget, ZeroDeadlineRejectsUpFront) {
  MachineOptions mopt;
  mopt.budget.deadline_ms = 0;
  const RunResult r = run_source(kFiniteSource, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kDeadlineExceeded);
  // Rejected before a single cycle: nothing fired, store untouched.
  EXPECT_EQ(r.stats.cycles, 0u);
  EXPECT_EQ(r.stats.ops_fired, 0u);
  EXPECT_EQ(r.stats.error_detail.render(),
            "deadline exceeded: the 0 ms wall-clock budget was spent "
            "before the program completed");
}

TEST(MachineBudget, GenerousBudgetIsByteIdenticalToNoBudget) {
  for (const Policy& cfg : kPolicies) {
    const RunResult bare = run_source(kFiniteSource, {}, cfg.scan);
    ASSERT_TRUE(bare.stats.completed)
        << cfg.name << ": " << bare.stats.error_detail.render();

    MachineOptions armed;
    armed.budget.deadline_ms = 600'000;
    armed.budget.max_tokens = 1ull << 60;
    const RunResult r = run_source(kFiniteSource, armed, cfg.scan);
    ASSERT_TRUE(r.stats.completed)
        << cfg.name << ": " << r.stats.error_detail.render();
    EXPECT_TRUE(r.store == bare.store) << cfg.name;
    EXPECT_EQ(render_report(r.stats), render_report(bare.stats)) << cfg.name;
  }
}

TEST(MachineBudget, CycleCapStillTripsThroughTheBudget) {
  MachineOptions mopt;
  mopt.budget.max_cycles = 500;
  const RunResult r = run_source(kSpinSource, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kCycleCap);
}

}  // namespace
}  // namespace ctdf::machine
