#include "lang/ast.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace ctdf::lang {

const char* to_string(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  CTDF_UNREACHABLE("bad BinOp");
}

const char* to_string(UnOp op) {
  switch (op) {
    case UnOp::kNeg: return "-";
    case UnOp::kNot: return "!";
  }
  CTDF_UNREACHABLE("bad UnOp");
}

std::int64_t eval_binop(BinOp op, std::int64_t a, std::int64_t b) {
  using U = std::uint64_t;
  switch (op) {
    // Wrapping arithmetic via unsigned, so overflow is well-defined.
    case BinOp::kAdd: return static_cast<std::int64_t>(U(a) + U(b));
    case BinOp::kSub: return static_cast<std::int64_t>(U(a) - U(b));
    case BinOp::kMul: return static_cast<std::int64_t>(U(a) * U(b));
    case BinOp::kDiv:
      if (b == 0) return 0;
      if (a == INT64_MIN && b == -1) return INT64_MIN;  // wrap, don't trap
      return a / b;
    case BinOp::kMod:
      if (b == 0) return 0;
      if (a == INT64_MIN && b == -1) return 0;
      return a % b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::kOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  CTDF_UNREACHABLE("bad BinOp");
}

std::int64_t eval_unop(UnOp op, std::int64_t a) {
  switch (op) {
    case UnOp::kNeg: return static_cast<std::int64_t>(-static_cast<std::uint64_t>(a));
    case UnOp::kNot: return a == 0 ? 1 : 0;
  }
  CTDF_UNREACHABLE("bad UnOp");
}

ExprPtr Expr::constant(std::int64_t v, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kConst;
  e->loc = loc;
  e->value = v;
  return e;
}

ExprPtr Expr::variable(VarId v, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVar;
  e->loc = loc;
  e->var = v;
  return e;
}

ExprPtr Expr::array_ref(VarId base, ExprPtr index, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kArrayRef;
  e->loc = loc;
  e->var = base;
  e->lhs = std::move(index);
  return e;
}

ExprPtr Expr::binary(BinOp op, ExprPtr l, ExprPtr r, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->loc = loc;
  e->bop = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

ExprPtr Expr::unary(UnOp op, ExprPtr operand, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->loc = loc;
  e->uop = op;
  e->lhs = std::move(operand);
  return e;
}

void Expr::collect_vars(std::vector<VarId>& out) const {
  switch (kind) {
    case Kind::kConst:
      break;
    case Kind::kVar:
    case Kind::kArrayRef:
      if (std::find(out.begin(), out.end(), var) == out.end())
        out.push_back(var);
      if (lhs) lhs->collect_vars(out);
      break;
    case Kind::kBinary:
      lhs->collect_vars(out);
      rhs->collect_vars(out);
      break;
    case Kind::kUnary:
      lhs->collect_vars(out);
      break;
  }
}

std::string Expr::to_string(const SymbolTable& syms) const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kConst:
      os << value;
      break;
    case Kind::kVar:
      os << syms.name(var);
      break;
    case Kind::kArrayRef:
      os << syms.name(var) << '[' << lhs->to_string(syms) << ']';
      break;
    case Kind::kBinary:
      os << '(' << lhs->to_string(syms) << ' ' << lang::to_string(bop) << ' '
         << rhs->to_string(syms) << ')';
      break;
    case Kind::kUnary:
      os << lang::to_string(uop) << '(' << lhs->to_string(syms) << ')';
      break;
  }
  return os.str();
}

std::string LValue::to_string(const SymbolTable& syms) const {
  if (!is_array_elem()) return syms.name(var);
  return syms.name(var) + "[" + index->to_string(syms) + "]";
}

StmtPtr Stmt::assign(LValue lhs, ExprPtr rhs, support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kAssign;
  s->loc = loc;
  s->lhs = std::move(lhs);
  s->expr = std::move(rhs);
  return s;
}

StmtPtr Stmt::if_stmt(ExprPtr pred, std::vector<StmtPtr> then_body,
                      std::vector<StmtPtr> else_body, support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kIf;
  s->loc = loc;
  s->expr = std::move(pred);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

StmtPtr Stmt::while_stmt(ExprPtr pred, std::vector<StmtPtr> body,
                         support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kWhile;
  s->loc = loc;
  s->expr = std::move(pred);
  s->then_body = std::move(body);
  return s;
}

StmtPtr Stmt::goto_stmt(std::string target, support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kGoto;
  s->loc = loc;
  s->target_true = std::move(target);
  return s;
}

StmtPtr Stmt::cond_goto(ExprPtr pred, std::string if_true,
                        std::string if_false, support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kCondGoto;
  s->loc = loc;
  s->expr = std::move(pred);
  s->target_true = std::move(if_true);
  s->target_false = std::move(if_false);
  return s;
}

StmtPtr Stmt::skip(support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = Kind::kSkip;
  s->loc = loc;
  return s;
}

namespace {

void print_stmt(std::ostringstream& os, const Stmt& s, const SymbolTable& syms,
                int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const auto& l : s.labels) os << l << ":\n";
  switch (s.kind) {
    case Stmt::Kind::kAssign:
      os << pad << s.lhs.to_string(syms) << " := " << s.expr->to_string(syms)
         << ";\n";
      break;
    case Stmt::Kind::kIf:
      os << pad << "if " << s.expr->to_string(syms) << " {\n";
      for (const auto& t : s.then_body) print_stmt(os, *t, syms, indent + 1);
      if (!s.else_body.empty()) {
        os << pad << "} else {\n";
        for (const auto& t : s.else_body) print_stmt(os, *t, syms, indent + 1);
      }
      os << pad << "}\n";
      break;
    case Stmt::Kind::kWhile:
      os << pad << "while " << s.expr->to_string(syms) << " {\n";
      for (const auto& t : s.then_body) print_stmt(os, *t, syms, indent + 1);
      os << pad << "}\n";
      break;
    case Stmt::Kind::kGoto:
      os << pad << "goto " << s.target_true << ";\n";
      break;
    case Stmt::Kind::kCondGoto:
      os << pad << "if " << s.expr->to_string(syms) << " then goto "
         << s.target_true << " else goto " << s.target_false << ";\n";
      break;
    case Stmt::Kind::kSkip:
      os << pad << "skip;\n";
      break;
  }
}

}  // namespace

std::string Program::to_string() const {
  std::ostringstream os;
  for (VarId v : symbols.all_vars()) {
    const auto& info = symbols.info(v);
    if (info.kind == VarKind::kScalar) {
      os << "var " << info.name << ";\n";
    } else {
      os << "array " << info.name << '[' << info.array_size << "];\n";
    }
  }
  const auto vars = symbols.all_vars();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (symbols.may_alias(vars[i], vars[j]))
        os << "alias " << symbols.name(vars[i]) << ' '
           << symbols.name(vars[j]) << ";\n";
    }
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (symbols.same_storage(vars[i], vars[j]))
        os << "bind " << symbols.name(vars[i]) << ' '
           << symbols.name(vars[j]) << ";\n";
    }
  }
  for (const auto& s : body) print_stmt(os, *s, symbols, 0);
  return os.str();
}

}  // namespace ctdf::lang
