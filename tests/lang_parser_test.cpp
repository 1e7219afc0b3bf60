#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "support/deep_sources.hpp"

namespace ctdf::lang {
namespace {

Program ok(std::string_view src) {
  support::DiagnosticEngine d;
  Program p = parse(src, d);
  EXPECT_FALSE(d.has_errors()) << d.to_string();
  return p;
}

void expect_error(std::string_view src, std::string_view needle) {
  support::DiagnosticEngine d;
  (void)parse(src, d);
  ASSERT_TRUE(d.has_errors()) << "expected an error for: " << src;
  EXPECT_NE(d.to_string().find(needle), std::string::npos)
      << "diagnostics were: " << d.to_string();
}

TEST(Parser, Declarations) {
  const Program p = ok("var x, y; array a[10], b[3]; alias x y; bind x y;");
  EXPECT_EQ(p.symbols.size(), 4u);
  EXPECT_TRUE(p.symbols.is_array(*p.symbols.lookup("a")));
  EXPECT_EQ(p.symbols.info(*p.symbols.lookup("a")).array_size, 10);
  EXPECT_TRUE(p.symbols.may_alias(*p.symbols.lookup("x"),
                                  *p.symbols.lookup("y")));
  EXPECT_TRUE(p.symbols.same_storage(*p.symbols.lookup("x"),
                                     *p.symbols.lookup("y")));
}

TEST(Parser, ExpressionPrecedence) {
  const Program p = ok("var x, y; x := 1 + 2 * 3 < 4 && y == 5;");
  // ((1 + (2*3)) < 4) && (y == 5)
  const Stmt& s = *p.body.front();
  ASSERT_EQ(s.expr->kind, Expr::Kind::kBinary);
  EXPECT_EQ(s.expr->bop, BinOp::kAnd);
  EXPECT_EQ(s.expr->lhs->bop, BinOp::kLt);
  EXPECT_EQ(s.expr->lhs->lhs->bop, BinOp::kAdd);
  EXPECT_EQ(s.expr->lhs->lhs->rhs->bop, BinOp::kMul);
}

TEST(Parser, LeftAssociativity) {
  const Program p = ok("var x; x := 10 - 3 - 2;");
  const Expr& e = *p.body.front()->expr;
  // (10 - 3) - 2
  EXPECT_EQ(e.bop, BinOp::kSub);
  EXPECT_EQ(e.rhs->value, 2);
  EXPECT_EQ(e.lhs->bop, BinOp::kSub);
}

TEST(Parser, UnaryOperators) {
  const Program p = ok("var x; x := -x + !(x - 1);");
  EXPECT_EQ(p.body.front()->expr->lhs->kind, Expr::Kind::kUnary);
  EXPECT_EQ(p.body.front()->expr->lhs->uop, UnOp::kNeg);
  EXPECT_EQ(p.body.front()->expr->rhs->uop, UnOp::kNot);
}

TEST(Parser, StructuredStatements) {
  const Program p = ok(R"(
var x, w;
if w == 0 { x := 1; } else { x := 2; while x < 5 { x := x + 1; } }
)");
  ASSERT_EQ(p.body.size(), 1u);
  const Stmt& s = *p.body.front();
  EXPECT_EQ(s.kind, Stmt::Kind::kIf);
  EXPECT_EQ(s.then_body.size(), 1u);
  ASSERT_EQ(s.else_body.size(), 2u);
  EXPECT_EQ(s.else_body[1]->kind, Stmt::Kind::kWhile);
}

TEST(Parser, UnstructuredFlow) {
  const Program p = ok(R"(
var x;
l: x := x + 1;
if x < 5 then goto l else goto end;
)");
  EXPECT_EQ(p.body[0]->labels, std::vector<std::string>{"l"});
  EXPECT_EQ(p.body[1]->kind, Stmt::Kind::kCondGoto);
  EXPECT_EQ(p.body[1]->target_false, "end");
}

TEST(Parser, RejectsUndeclaredVariable) {
  expect_error("var x; x := y;", "undeclared variable 'y'");
}

TEST(Parser, RejectsRedeclaration) {
  expect_error("var x; var x;", "redeclaration");
}

TEST(Parser, RejectsUndefinedLabel) {
  expect_error("var x; goto nowhere;", "undefined label");
}

TEST(Parser, RejectsDuplicateLabel) {
  expect_error("var x; l: x := 1; l: x := 2;", "duplicate label");
}

TEST(Parser, RejectsReservedLabels) {
  expect_error("var x; end: x := 1;", "reserved");
}

TEST(Parser, RejectsNestedLabels) {
  expect_error("var x, w; if w { l: x := 1; }", "top level");
}

TEST(Parser, RejectsNestedGoto) {
  expect_error("var x, w; l: x := 1; if w { goto l; }", "top level");
}

TEST(Parser, RejectsArrayWithoutSubscript) {
  expect_error("array a[4]; var x; x := a;", "needs a subscript");
  expect_error("array a[4]; a := 1;", "needs a subscript");
}

TEST(Parser, RejectsSubscriptOnScalar) {
  expect_error("var x, y; x := y[0];", "not an array");
}

TEST(Parser, RejectsZeroSizeArray) {
  expect_error("array a[0];", "positive");
}

TEST(Parser, RejectsBindOfMismatchedKinds) {
  expect_error("var x; array a[3]; bind x a;", "different kind");
}

TEST(Parser, StrayClosingBraceRecoversInBoundedDiagnostics) {
  // Error recovery stops at a '}' for the enclosing block. At top level
  // there is none, so the parser must consume it itself: every token
  // costs at most one diagnostic.
  for (const std::string_view src :
       {std::string_view("}"), std::string_view("var x;\n}\n"),
        std::string_view("var x;\nif x then {}\n")}) {
    support::DiagnosticEngine lexed;
    const std::size_t tokens = lex(src, lexed).size();
    support::DiagnosticEngine d;
    (void)parse(src, d);
    EXPECT_TRUE(d.has_errors()) << src;
    EXPECT_LE(d.diagnostics().size(), tokens) << src << "\n" << d.to_string();
  }
}

TEST(Parser, TooDeepSourcesGiveOneDiagnostic) {
  // Each of these overflowed the stack before the depth bound; now the
  // parser stops at the bound with a single diagnostic.
  for (const auto& [name, src] : testing::stack_overflow_reproducers()) {
    support::DiagnosticEngine d;
    (void)parse(src, d);
    ASSERT_EQ(d.diagnostics().size(), 1u) << name << "\n" << d.to_string();
    EXPECT_NE(d.to_string().find("nesting deeper than 1000 levels"),
              std::string::npos)
        << name << ": " << d.to_string();
  }
}

TEST(Parser, SourcesExactlyAtTheDepthBoundParse) {
  const std::vector<std::pair<std::string, std::string (*)(int)>> kinds = {
      {"parens", testing::nested_parens},
      {"sum", testing::flat_sum},
      {"minus", testing::unary_minuses},
      {"if", [](int n) { return testing::nested_blocks("if", n); }},
      {"while", [](int n) { return testing::nested_blocks("while", n); }},
  };
  for (const auto& [name, make] : kinds) {
    (void)ok(make(1000));
    expect_error(make(1001), "nesting deeper than 1000 levels");
  }
}

TEST(Parser, CorpusProgramsParse) {
  for (const auto& np : corpus::all()) {
    support::DiagnosticEngine d;
    (void)parse(np.source, d);
    EXPECT_FALSE(d.has_errors()) << np.name << ": " << d.to_string();
  }
}

TEST(Parser, PrettyPrintRoundTrip) {
  for (const auto& np : corpus::all()) {
    const Program p1 = ok(np.source);
    const std::string printed = p1.to_string();
    support::DiagnosticEngine d;
    const Program p2 = parse(printed, d);
    EXPECT_FALSE(d.has_errors())
        << np.name << " failed to reparse:\n" << printed << d.to_string();
    EXPECT_EQ(printed, p2.to_string()) << np.name;
  }
}

}  // namespace
}  // namespace ctdf::lang
