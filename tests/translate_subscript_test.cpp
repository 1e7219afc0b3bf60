#include <gtest/gtest.h>

#include "cfg/build.hpp"
#include "cfg/intervals.hpp"
#include "lang/parser.hpp"
#include "translate/stages.hpp"
#include "translate/subscript.hpp"

namespace ctdf::translate {
namespace {

/// Parses a program whose first statement is `probe := <expr>;` and
/// returns that expression for affine matching.
const lang::Expr& expr_of(const lang::Program& p) {
  return *p.body.front()->expr;
}

lang::Program parse_expr(const std::string& e) {
  return lang::parse_or_throw("var probe, i, j; " + std::string("probe := ") +
                              e + ";");
}

TEST(Affine, MatchesSimpleForms) {
  struct Case {
    const char* expr;
    std::int64_t coeff;
    std::int64_t offset;
  };
  for (const Case& c : {Case{"i", 1, 0},
                        Case{"i + 3", 1, 3},
                        Case{"i - 5", 1, -5},
                        Case{"3 + i", 1, 3},
                        Case{"2 * i", 2, 0},
                        Case{"i * 2", 2, 0},
                        Case{"2 * i + 7", 2, 7},
                        Case{"7 - i", -1, 7},
                        Case{"-i", -1, 0},
                        Case{"-(2 * i - 1)", -2, 1},
                        Case{"i + i", 2, 0},
                        Case{"3 * (i + 1) - i", 2, 3}}) {
    const auto p = parse_expr(c.expr);
    const auto m = match_affine(expr_of(p));
    ASSERT_TRUE(m.has_value()) << c.expr;
    EXPECT_EQ(m->coeff, c.coeff) << c.expr;
    EXPECT_EQ(m->offset, c.offset) << c.expr;
    EXPECT_EQ(m->var, *p.symbols.lookup("i")) << c.expr;
  }
}

TEST(Affine, RejectsNonAffineForms) {
  for (const char* e : {"i * i", "i * j", "i + j", "i / 2", "i % 3", "5",
                        "i - i", "0 * i + 4", "i < 3", "!(i)"}) {
    const auto p = parse_expr(e);
    EXPECT_FALSE(match_affine(expr_of(p)).has_value()) << e;
  }
}

struct LoopFixture {
  lang::Program prog;
  cfg::Graph g;
  cfg::LoopInfo info;

  explicit LoopFixture(const std::string& src)
      : prog(lang::parse_or_throw(src)), g(cfg::build_cfg_or_throw(prog)) {
    support::DiagnosticEngine d;
    info = cfg::transform_loops(g, d);
    EXPECT_FALSE(d.has_errors());
    EXPECT_FALSE(info.loops().empty());
  }

  std::span<const cfg::NodeId> loop() const {
    return info.nodes(info.loops().front().id);
  }
  lang::VarId var(const char* n) const { return *prog.symbols.lookup(n); }
};

TEST(Induction, DetectsSimpleSteps) {
  LoopFixture f(R"(
var i; array x[8];
l: i := i + 2; x[i] := 1; if i < 6 then goto l else goto end;
)");
  const auto step = induction_step(f.g, f.loop(), f.var("i"), f.prog.symbols);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(*step, 2);
}

TEST(Induction, DetectsNegativeStep) {
  LoopFixture f(R"(
var i; array x[8];
i := 7;
l: i := i - 1; x[i] := 1; if i > 0 then goto l else goto end;
)");
  const auto step = induction_step(f.g, f.loop(), f.var("i"), f.prog.symbols);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(*step, -1);
}

TEST(Induction, RejectsMultipleAssignments) {
  LoopFixture f(R"(
var i; array x[8];
l: i := i + 1; i := i + 1; x[i] := 1; if i < 6 then goto l else goto end;
)");
  EXPECT_FALSE(
      induction_step(f.g, f.loop(), f.var("i"), f.prog.symbols).has_value());
}

TEST(Induction, RejectsNonInductionUpdate) {
  LoopFixture f(R"(
var i; array x[8];
l: i := i * 2 + 1; x[i] := 1; if i < 6 then goto l else goto end;
)");
  EXPECT_FALSE(
      induction_step(f.g, f.loop(), f.var("i"), f.prog.symbols).has_value());
}

TEST(Induction, RejectsAliasedVariable) {
  LoopFixture f(R"(
var i, k; array x[8];
alias i k;
l: i := i + 1; x[i] := 1; if i < 6 then goto l else goto end;
)");
  EXPECT_FALSE(
      induction_step(f.g, f.loop(), f.var("i"), f.prog.symbols).has_value());
}

TEST(StoresParallelizable, AcceptsAffineInductionStores) {
  LoopFixture f(R"(
var i; array x[32];
l: i := i + 1; x[2 * i + 1] := i; if i < 10 then goto l else goto end;
)");
  EXPECT_TRUE(
      stores_parallelizable(f.g, f.loop(), f.var("x"), f.prog.symbols));
}

TEST(StoresParallelizable, RejectsLoopsThatReadTheArray) {
  LoopFixture f(R"(
var i; array x[16];
l: i := i + 1; x[i] := x[i - 1]; if i < 10 then goto l else goto end;
)");
  EXPECT_FALSE(
      stores_parallelizable(f.g, f.loop(), f.var("x"), f.prog.symbols));
}

TEST(StoresParallelizable, RejectsArrayReadInPredicate) {
  LoopFixture f(R"(
var i; array x[16];
l: i := i + 1; x[i] := 1; if x[0] + i < 10 then goto l else goto end;
)");
  EXPECT_FALSE(
      stores_parallelizable(f.g, f.loop(), f.var("x"), f.prog.symbols));
}

TEST(StoresParallelizable, RejectsNonAffineSubscript) {
  LoopFixture f(R"(
var i; array x[16];
l: i := i + 1; x[i * i] := 1; if i < 10 then goto l else goto end;
)");
  EXPECT_FALSE(
      stores_parallelizable(f.g, f.loop(), f.var("x"), f.prog.symbols));
}

TEST(StoresParallelizable, RejectsLoopWithNoStores) {
  LoopFixture f(R"(
var i, s; array x[16];
l: i := i + 1; s := s + i; if i < 10 then goto l else goto end;
)");
  EXPECT_FALSE(
      stores_parallelizable(f.g, f.loop(), f.var("x"), f.prog.symbols));
}

TEST(Fig14EndToEnd, GeneralAffineSubscriptNowQualifies) {
  // The generalized matcher accepts stride-2 subscripts end to end.
  const auto prog = lang::parse_or_throw(R"(
var i; array x[64];
l: i := i + 1; x[2 * i] := i; if i < 20 then goto l else goto end;
)");
  auto o = TranslateOptions::schema2_optimized();
  o.parallel_store_arrays = {"x"};
  support::DiagnosticEngine d;
  const auto tx = run_stages(prog, o, d);
  EXPECT_FALSE(d.has_errors());
  EXPECT_EQ(tx.loops_store_parallelized, 1u);
}

}  // namespace
}  // namespace ctdf::translate
