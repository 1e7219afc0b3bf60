// Direct unit tests of the AST layer: total arithmetic semantics
// (shared bit-for-bit by interpreter, constant folder, and machine
// ALU), expression cloning, and variable collection.
#include <gtest/gtest.h>

#include "lang/ast.hpp"
#include "lang/parser.hpp"

namespace ctdf::lang {
namespace {

TEST(EvalBinop, WrappingArithmetic) {
  EXPECT_EQ(eval_binop(BinOp::kAdd, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(eval_binop(BinOp::kSub, INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(eval_binop(BinOp::kMul, INT64_MIN, -1), INT64_MIN);  // wraps
  EXPECT_EQ(eval_binop(BinOp::kAdd, -3, 5), 2);
}

TEST(EvalBinop, TotalDivision) {
  EXPECT_EQ(eval_binop(BinOp::kDiv, 7, 2), 3);
  EXPECT_EQ(eval_binop(BinOp::kDiv, -7, 2), -3);
  EXPECT_EQ(eval_binop(BinOp::kDiv, 5, 0), 0);
  EXPECT_EQ(eval_binop(BinOp::kMod, 5, 0), 0);
  EXPECT_EQ(eval_binop(BinOp::kDiv, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(eval_binop(BinOp::kMod, INT64_MIN, -1), 0);
  EXPECT_EQ(eval_binop(BinOp::kMod, -7, 3), -1);  // C-style remainder
}

TEST(EvalBinop, ComparisonsAndLogic) {
  EXPECT_EQ(eval_binop(BinOp::kLt, -1, 0), 1);
  EXPECT_EQ(eval_binop(BinOp::kGe, 3, 3), 1);
  EXPECT_EQ(eval_binop(BinOp::kNe, 2, 2), 0);
  EXPECT_EQ(eval_binop(BinOp::kAnd, 5, -2), 1);  // any non-zero is true
  EXPECT_EQ(eval_binop(BinOp::kAnd, 5, 0), 0);
  EXPECT_EQ(eval_binop(BinOp::kOr, 0, 0), 0);
  EXPECT_EQ(eval_binop(BinOp::kOr, 0, 9), 1);
}

TEST(EvalUnop, NegAndNot) {
  EXPECT_EQ(eval_unop(UnOp::kNeg, 5), -5);
  EXPECT_EQ(eval_unop(UnOp::kNeg, INT64_MIN), INT64_MIN);  // wraps
  EXPECT_EQ(eval_unop(UnOp::kNot, 0), 1);
  EXPECT_EQ(eval_unop(UnOp::kNot, -7), 0);
}

TEST(Expr, CollectVarsDeduplicatesAndFindsIndexVars) {
  const Program p =
      parse_or_throw("var x, y; array a[4]; x := x + a[y] + x * y;");
  std::vector<VarId> vars;
  p.body.front()->expr->collect_vars(vars);
  EXPECT_EQ(vars.size(), 3u);  // x, a, y — each once
}

TEST(Expr, ToStringParenthesizesStructure) {
  const Program p = parse_or_throw("var x; x := (x + 1) * 2;");
  EXPECT_EQ(p.body.front()->expr->to_string(p.symbols), "((x + 1) * 2)");
}

TEST(LValue, ArrayElementPrints) {
  const Program p = parse_or_throw("var i; array a[4]; a[i + 1] := 0;");
  const LValue& lv = p.body.front()->lhs;
  EXPECT_TRUE(lv.is_array_elem());
  EXPECT_EQ(lv.to_string(p.symbols), "a[(i + 1)]");
}

TEST(Stmt, FactoriesProduceExpectedKinds) {
  EXPECT_EQ(Stmt::skip()->kind, Stmt::Kind::kSkip);
  EXPECT_EQ(Stmt::goto_stmt("l")->kind, Stmt::Kind::kGoto);
  auto cg = Stmt::cond_goto(Expr::constant(1), "a", "b");
  EXPECT_EQ(cg->kind, Stmt::Kind::kCondGoto);
  EXPECT_EQ(cg->target_true, "a");
  EXPECT_EQ(cg->target_false, "b");
}

}  // namespace
}  // namespace ctdf::lang
