#include "translate/subscript.hpp"

#include <algorithm>

namespace ctdf::translate {

namespace {

/// Affine combination helpers over optional forms. A pure constant is
/// represented with var == invalid and coeff == 0.
struct Form {
  lang::VarId var;  ///< invalid for constants
  std::int64_t coeff = 0;
  std::int64_t offset = 0;

  [[nodiscard]] bool is_const() const { return !var.valid(); }
};

std::optional<Form> analyze(const lang::Expr& e) {
  using K = lang::Expr::Kind;
  switch (e.kind) {
    case K::kConst:
      return Form{lang::VarId::invalid(), 0, e.value};
    case K::kVar:
      return Form{e.var, 1, 0};
    case K::kUnary: {
      if (e.uop != lang::UnOp::kNeg) return std::nullopt;
      auto f = analyze(*e.lhs);
      if (!f) return std::nullopt;
      f->coeff = -f->coeff;
      f->offset = -f->offset;
      return f;
    }
    case K::kBinary: {
      const auto l = analyze(*e.lhs);
      const auto r = analyze(*e.rhs);
      if (!l || !r) return std::nullopt;
      switch (e.bop) {
        case lang::BinOp::kAdd:
        case lang::BinOp::kSub: {
          const std::int64_t sign = e.bop == lang::BinOp::kAdd ? 1 : -1;
          Form out;
          if (l->is_const() && r->is_const()) {
            out = Form{lang::VarId::invalid(), 0,
                       l->offset + sign * r->offset};
          } else if (r->is_const()) {
            out = Form{l->var, l->coeff, l->offset + sign * r->offset};
          } else if (l->is_const()) {
            out = Form{r->var, sign * r->coeff, l->offset + sign * r->offset};
          } else if (l->var == r->var) {
            out = Form{l->var, l->coeff + sign * r->coeff,
                       l->offset + sign * r->offset};
            if (out.coeff == 0) out.var = lang::VarId::invalid();
          } else {
            return std::nullopt;  // two distinct variables
          }
          return out;
        }
        case lang::BinOp::kMul: {
          const Form* cst = l->is_const() ? &*l : (r->is_const() ? &*r : nullptr);
          const Form* lin = l->is_const() ? &*r : &*l;
          if (!cst) return std::nullopt;  // var * var
          Form out{lin->var, lin->coeff * cst->offset,
                   lin->offset * cst->offset};
          if (out.coeff == 0) out.var = lang::VarId::invalid();
          return out;
        }
        default:
          return std::nullopt;
      }
    }
    case K::kArrayRef:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Affine> match_affine(const lang::Expr& expr) {
  const auto f = analyze(expr);
  if (!f || f->is_const() || f->coeff == 0) return std::nullopt;
  return Affine{f->var, f->coeff, f->offset};
}

std::optional<std::int64_t> induction_step(const cfg::Graph& g,
                                           std::span<const cfg::NodeId> loop,
                                           lang::VarId v,
                                           const lang::SymbolTable& syms) {
  if (syms.is_array(v)) return std::nullopt;
  if (syms.alias_class(v).size() != 1) return std::nullopt;

  std::optional<std::int64_t> step;
  int assignments = 0;
  for (cfg::NodeId n : loop) {
    const cfg::Node& node = g.node(n);
    if (node.kind != cfg::NodeKind::kAssign || node.lhs->var != v) continue;
    ++assignments;
    if (assignments > 1) return std::nullopt;
    // rhs must be v ± step, i.e. affine in v with coefficient 1.
    const auto f = match_affine(*node.rhs);
    if (!f || f->var != v || f->coeff != 1 || f->offset == 0)
      return std::nullopt;
    step = f->offset;
  }
  if (assignments != 1) return std::nullopt;
  return step;
}

bool stores_parallelizable(const cfg::Graph& g,
                           std::span<const cfg::NodeId> loop, lang::VarId a,
                           const lang::SymbolTable& syms) {
  bool any_store = false;
  std::vector<lang::VarId> reads;
  for (cfg::NodeId n : loop) {
    const cfg::Node& node = g.node(n);
    reads.clear();
    switch (node.kind) {
      case cfg::NodeKind::kFork:
        node.pred->collect_vars(reads);
        break;
      case cfg::NodeKind::kAssign:
        node.rhs->collect_vars(reads);
        if (node.lhs->index) node.lhs->index->collect_vars(reads);
        break;
      default:
        continue;
    }
    if (std::find(reads.begin(), reads.end(), a) != reads.end())
      return false;  // the array is read somewhere in the loop

    if (node.kind != cfg::NodeKind::kAssign || node.lhs->var != a) continue;
    if (!node.lhs->index) return false;
    const auto affine = match_affine(*node.lhs->index);
    if (!affine) return false;
    if (!induction_step(g, loop, affine->var, syms)) return false;
    any_store = true;
  }
  return any_store;
}

}  // namespace ctdf::translate
