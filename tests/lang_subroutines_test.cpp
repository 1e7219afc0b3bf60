#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "lang/subroutines.hpp"

namespace ctdf::lang {
namespace {

/// The paper's Section 5 program: SUBROUTINE F(X,Y,Z) called as
/// F(A,B,A) and F(C,D,D).
const char* kPaperExample = R"(
var a, b, c, d;
sub f(x, y, z) {
  x := x + 1;
  z := z + y;
}
b := 10; d := 20;
call f(a, b, a);
call f(c, d, d);
)";

TEST(Subroutines, CollectsDefinitionsAndCallSites) {
  const auto r = expand_subroutines_or_throw(kPaperExample);
  ASSERT_EQ(r.subroutines.size(), 1u);
  const SubroutineInfo& f = r.subroutines.front();
  EXPECT_EQ(f.name, "f");
  EXPECT_EQ(f.formals, (std::vector<std::string>{"x", "y", "z"}));
  ASSERT_EQ(f.call_sites.size(), 2u);
  EXPECT_EQ(f.call_sites[0], (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(f.call_sites[1], (std::vector<std::string>{"c", "d", "d"}));
}

TEST(Subroutines, PaperAliasStructureDerived) {
  const auto r = expand_subroutines_or_throw(kPaperExample);
  const auto pairs = formal_alias_pairs(r.subroutines.front());
  // x~z (from F(A,B,A)) and y~z (from F(C,D,D)); x and y never alias —
  // exactly the paper's [X]={X,Z}, [Y]={Y,Z}, [Z]={X,Y,Z}.
  EXPECT_EQ(pairs, (std::vector<std::pair<std::size_t, std::size_t>>{
                       {0, 2}, {1, 2}}));
  EXPECT_EQ(render_alias_decls(r.subroutines.front()),
            "alias x z;\nalias y z;\n");
}

TEST(Subroutines, ExpansionMatchesHandInlining) {
  const auto r = expand_subroutines_or_throw(kPaperExample);
  const Program expanded = parse_or_throw(r.source);
  const Program manual = parse_or_throw(R"(
var a, b, c, d;
b := 10; d := 20;
a := a + 1;   // f(a, b, a): x:=x+1
a := a + b;   //             z:=z+y with z==a
c := c + 1;   // f(c, d, d)
d := d + d;
)");
  const auto re = interpret(expanded);
  const auto rm = interpret(manual);
  ASSERT_TRUE(re.completed && rm.completed);
  for (const char* v : {"a", "b", "c", "d"})
    EXPECT_EQ(load_var(expanded, re.store, *expanded.symbols.lookup(v)),
              load_var(manual, rm.store, *manual.symbols.lookup(v)))
        << v;
}

TEST(Subroutines, ReferenceSemanticsVisible) {
  // swap-free double: passing the same variable twice doubles it.
  const auto r = expand_subroutines_or_throw(R"(
var p, q;
sub add_into(dst, src) { dst := dst + src; }
p := 5;
call add_into(p, p);
)");
  const Program prog = parse_or_throw(r.source);
  const auto res = interpret(prog);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(load_var(prog, res.store, *prog.symbols.lookup("p")), 10);
}

TEST(Subroutines, NestedCallsSubstituteTransitively) {
  const auto r = expand_subroutines_or_throw(R"(
var u, v;
sub inner(t) { t := t + 1; }
sub outer(s) { call inner(s); call inner(s); }
call outer(u);
call outer(v);
call outer(u);
)");
  const Program prog = parse_or_throw(r.source);
  const auto res = interpret(prog);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(load_var(prog, res.store, *prog.symbols.lookup("u")), 4);
  EXPECT_EQ(load_var(prog, res.store, *prog.symbols.lookup("v")), 2);
  // inner's call sites record the OUTER actuals after substitution.
  const auto& inner = r.subroutines.front();  // map order: inner < outer
  ASSERT_EQ(inner.name, "inner");
  ASSERT_EQ(inner.call_sites.size(), 6u);
  EXPECT_EQ(inner.call_sites[0], std::vector<std::string>{"u"});
}

TEST(Subroutines, StructuredBodiesAllowed) {
  const auto r = expand_subroutines_or_throw(R"(
var n, acc;
sub sum_to(limit, out) {
  out := 0;
  while out * (out + 1) / 2 < limit { out := out + 1; }
}
n := 10;
call sum_to(n, acc);
)");
  const Program prog = parse_or_throw(r.source);
  const auto res = interpret(prog);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(load_var(prog, res.store, *prog.symbols.lookup("acc")), 4);
}

TEST(Subroutines, RunsOnTheDataflowMachineToo) {
  const auto r = expand_subroutines_or_throw(kPaperExample);
  const Program prog = parse_or_throw(r.source);
  const auto ref = interpret(prog);
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  const auto res = core::execute(cr.image, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.store.cells, ref.store.cells);
}

TEST(SubroutineErrors, ParseErrorsKeepTheirSourcePositions) {
  // The expanded program is parsed from tokens that carry their source
  // positions: an error after an inlined call is on its own line, and
  // one inside a body is where the body says.
  support::DiagnosticEngine after;
  (void)parse_with_subroutines(
      "var x;\nsub f(a) { a := 1; }\ncall f(x);\nx := (;\n", after);
  ASSERT_TRUE(after.has_errors());
  EXPECT_EQ(after.diagnostics().front().loc.to_string(), "4:7");

  support::DiagnosticEngine inside;
  (void)parse_with_subroutines(
      "var x;\nsub f(a) {\n  a := 1 +;\n}\ncall f(x);\n", inside);
  ASSERT_TRUE(inside.has_errors());
  EXPECT_EQ(inside.diagnostics().front().loc.to_string(), "3:11");
}

TEST(Subroutines, ParsesLikeExpandThenParse) {
  // Expanding tokens in place builds the program that parsing the
  // expander's rendered text builds.
  support::DiagnosticEngine d;
  const Program direct = parse_with_subroutines(kPaperExample, d);
  ASSERT_FALSE(d.has_errors()) << d.to_string();
  const Program rendered =
      parse_or_throw(expand_subroutines_or_throw(kPaperExample).source);
  EXPECT_EQ(direct.to_string(), rendered.to_string());
}

TEST(SubroutineErrors, UnknownSubroutine) {
  support::DiagnosticEngine d;
  (void)expand_subroutines("var x; call nope(x);", d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("unknown subroutine"), std::string::npos);
}

TEST(SubroutineErrors, ArityMismatch) {
  support::DiagnosticEngine d;
  (void)expand_subroutines("var x; sub f(a, b) { a := b; } call f(x);", d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("expected 2"), std::string::npos);
}

TEST(SubroutineErrors, NonIdentifierActualRejected) {
  support::DiagnosticEngine d;
  (void)expand_subroutines("var x; sub f(a) { a := 1; } call f(x + 1);", d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("plain variable names"), std::string::npos);
}

TEST(SubroutineErrors, RecursionRejected) {
  support::DiagnosticEngine d;
  (void)expand_subroutines("var x; sub f(a) { call f(a); } call f(x);", d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("too deep"), std::string::npos);
}

TEST(SubroutineErrors, Redefinition) {
  support::DiagnosticEngine d;
  (void)expand_subroutines("sub f(a) { a := 1; } sub f(b) { b := 2; }", d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("redefinition"), std::string::npos);
}

TEST(Subroutines, NoSubsIsIdentityModuloWhitespace) {
  const auto r = expand_subroutines_or_throw("var x; x := 1 + 2;");
  const Program a = parse_or_throw(r.source);
  const Program b = parse_or_throw("var x; x := 1 + 2;");
  EXPECT_EQ(a.to_string(), b.to_string());
}

}  // namespace
}  // namespace ctdf::lang
