// The central soundness suite: every schema, executed on the simulated
// dataflow machine, must produce exactly the reference interpreter's
// final store — for the paper's example programs and for targeted
// feature programs.
#include <gtest/gtest.h>

#include <algorithm>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "machine/flags.hpp"
#include "support/equivalence.hpp"

namespace ctdf::testing {
namespace {

struct Case {
  std::string program_name;
  std::string source;
  SchemaConfig config;
};

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const auto& np : lang::corpus::all())
    for (const auto& cfg : standard_configs())
      out.push_back({np.name, np.source, cfg});
  return out;
}

class SchemaEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(SchemaEquivalence, FinalStoreMatchesInterpreter) {
  const Case& c = GetParam();
  const auto prog = lang::parse_or_throw(c.source);
  EXPECT_EQ(check_equivalence(prog, c.config), "");
}

INSTANTIATE_TEST_SUITE_P(
    CorpusTimesConfigs, SchemaEquivalence, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name =
          info.param.program_name + "_" + info.param.config.name;
      for (char& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(SchemaEquivalenceLadder, EveryAcceptedOptLevelHasARung) {
  // Every optimizer setting a request can reach is one the ladder (and
  // so the fuzz gauntlet) runs.
  const auto configs = standard_configs();
  for (const char* level : {"none", "cleanup", "all"}) {
    const std::string flag = std::string("--opt=") + level;
    translate::TranslateOptions o;
    ASSERT_EQ(translate::apply_schema_flag(o, flag),
              translate::SchemaFlagParse::kApplied)
        << flag;
    EXPECT_TRUE(std::any_of(configs.begin(), configs.end(),
                            [&](const SchemaConfig& c) {
                              return c.topt.opt_level == o.opt_level;
                            }))
        << flag << " has no equivalence-ladder rung";
  }
  // Nothing else selects an optimizer setting: neither option parser
  // takes a pass list, --post-opt or --fuse-limit.
  for (const char* flag :
       {"--post-opt", "--fuse-limit=4", "--opt=dce", "--opt=dce,fuse"}) {
    translate::TranslateOptions o;
    EXPECT_NE(translate::apply_schema_flag(o, flag),
              translate::SchemaFlagParse::kApplied)
        << flag;
    machine::MachineOptions m;
    EXPECT_NE(machine::apply_machine_flag(m, flag),
              machine::MachineFlagParse::kApplied)
        << flag;
  }
}

TEST(SchemaEquivalenceExtra, WhileLoopWithDataDependentExit) {
  const auto prog = lang::parse_or_throw(R"(
var x, n;
n := 20;
while x * x < n { x := x + 1; }
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, MultiExitLoop) {
  const auto prog = lang::parse_or_throw(R"(
var i, s;
l: i := i + 1;
s := s + i;
if s > 12 then goto out else goto next;
next:
if i < 10 then goto l else goto out;
out: s := s * 2;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, LoopInvariantVariableBypassesLoop) {
  const auto prog = lang::parse_or_throw(R"(
var a, i, s;
a := 7;
l: i := i + 1; s := s + i;
if i < 5 then goto l else goto done;
done: a := a + s;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, ConditionalInsideLoop) {
  const auto prog = lang::parse_or_throw(R"(
var i, odd, even;
while i < 9 {
  if i % 2 { odd := odd + i; } else { even := even + i; }
  i := i + 1;
}
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, BranchIntoSharedTail) {
  const auto prog = lang::parse_or_throw(R"(
var x, y, w;
w := 3;
if w < 2 then goto a else goto b;
a: x := 1; goto tail;
b: x := 2; goto tail;
tail: y := x * 10;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, AliasedScalarsThroughBind) {
  const auto prog = lang::parse_or_throw(R"(
var x, y, z;
alias x z; alias y z; bind y z;
x := 3;
z := x + 4;
y := y + z;
x := y - 1;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, ArraysWithComputedIndices) {
  const auto prog = lang::parse_or_throw(R"(
var i; array a[8], b[8];
while i < 8 { a[i] := i * i; i := i + 1; }
i := 0;
while i < 8 { b[7 - i] := a[i] + 1; i := i + 1; }
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, AliasedArrays) {
  const auto prog = lang::parse_or_throw(R"(
var i; array a[6], b[6];
alias a b; bind a b;
a[2] := 5;
i := b[2] + 1;
b[3] := i;
i := a[3] * 2;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, EmptyProgram) {
  const auto prog = lang::parse_or_throw("var x, y;");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, LoopNeverExecuted) {
  const auto prog = lang::parse_or_throw(R"(
var i, s;
i := 10;
while i < 5 { s := s + 1; i := i + 1; }
s := s + 100;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, DeepNesting) {
  const auto prog = lang::parse_or_throw(R"(
var i, j, k, s;
while i < 3 {
  j := 0;
  while j < 3 {
    k := 0;
    while k < 3 {
      if (i + j + k) % 2 { s := s + 1; }
      k := k + 1;
    }
    j := j + 1;
  }
  i := i + 1;
}
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, SelfLoopSingleNode) {
  const auto prog = lang::parse_or_throw(R"(
var x;
l: x := x + 1; if x >= 4 then goto end else goto l;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, ConstantPredicates) {
  const auto prog = lang::parse_or_throw(R"(
var x, y;
if 1 { x := 5; } else { x := 6; }
if 0 { y := 7; } else { y := 8; }
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

TEST(SchemaEquivalenceExtra, DivisionByZeroTotalSemantics) {
  const auto prog = lang::parse_or_throw(R"(
var x, y, z;
x := 5 / z;
y := 5 % z;
z := x + y;
)");
  EXPECT_EQ(check_all_configs(prog), "");
}

}  // namespace
}  // namespace ctdf::testing
