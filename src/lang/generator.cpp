#include "lang/generator.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace ctdf::lang {

namespace {

class Gen {
 public:
  Gen(const GeneratorOptions& opt, std::uint64_t seed)
      : opt_(opt), rng_(seed) {}

  Program run() {
    declare_vars();
    // Seed a few variables with constants so programs do not collapse
    // to all-zero stores.
    const int inits = static_cast<int>(rng_.next_in(1, opt_.num_scalars));
    for (int i = 0; i < inits; ++i) {
      emit(Stmt::assign(LValue{scalars_[static_cast<std::size_t>(i)], nullptr},
                        Expr::constant(rng_.next_in(-8, 8))));
    }
    emit_toplevel(opt_.max_toplevel_stmts);
    return std::move(prog_);
  }

 private:
  // --- declarations ---------------------------------------------------------

  void declare_vars() {
    for (int i = 0; i < opt_.num_scalars; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      const auto v = prog_.symbols.declare_scalar(name);
      CTDF_ASSERT(v.has_value());
      scalars_.push_back(*v);
    }
    for (int i = 0; i < opt_.num_arrays; ++i) {
      std::string name = "a";
      name += std::to_string(i);
      const auto v = prog_.symbols.declare_array(name, opt_.array_size);
      CTDF_ASSERT(v.has_value());
      arrays_.push_back(*v);
    }
    if (opt_.allow_aliasing && scalars_.size() >= 2) {
      const std::size_t pairs = 1 + rng_.next_below(scalars_.size());
      for (std::size_t i = 0; i < pairs; ++i) {
        const VarId a = pick(scalars_);
        const VarId b = pick(scalars_);
        if (a == b) continue;
        prog_.symbols.add_alias(a, b);
        // may-alias that sometimes really is the same storage
        if (rng_.chance(1, 2)) prog_.symbols.bind(a, b);
      }
      if (arrays_.size() >= 2 && rng_.chance(1, 2)) {
        const VarId a = pick(arrays_);
        const VarId b = pick(arrays_);
        if (a != b) {
          prog_.symbols.add_alias(a, b);
          if (rng_.chance(1, 2)) prog_.symbols.bind(a, b);
        }
      }
    }
  }

  /// A fresh loop counter: initialized before its loop, incremented once
  /// per iteration, never otherwise written.
  VarId fresh_counter() {
    std::string name = "k";
    name += std::to_string(counter_seq_++);
    const auto v = prog_.symbols.declare_scalar(name);
    CTDF_ASSERT(v.has_value());
    return *v;
  }

  std::string fresh_label() {
    std::string label = "L";
    label += std::to_string(label_seq_++);
    return label;
  }

  // --- expressions ----------------------------------------------------------

  VarId pick(const std::vector<VarId>& pool) {
    CTDF_ASSERT(!pool.empty());
    return pool[rng_.next_below(pool.size())];
  }

  /// Any readable variable: program scalars plus loop counters.
  VarId pick_readable() {
    const auto total = scalars_.size() + counters_.size();
    const auto i = rng_.next_below(total);
    return i < scalars_.size() ? scalars_[i] : counters_[i - scalars_.size()];
  }

  ExprPtr gen_expr(int depth) {
    const auto roll = rng_.next_below(100);
    if (depth <= 0 || roll < 25) {
      return Expr::constant(rng_.next_in(-10, 10));
    }
    if (roll < 55) {
      return Expr::variable(pick_readable());
    }
    if (roll < 62 && !arrays_.empty()) {
      return Expr::array_ref(pick(arrays_), gen_expr(depth - 1));
    }
    if (roll < 70) {
      return Expr::unary(rng_.chance(1, 2) ? UnOp::kNeg : UnOp::kNot,
                         gen_expr(depth - 1));
    }
    static constexpr BinOp kOps[] = {
        BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv, BinOp::kMod,
        BinOp::kEq,  BinOp::kNe,  BinOp::kLt,  BinOp::kLe,  BinOp::kGt,
        BinOp::kGe,  BinOp::kAnd, BinOp::kOr,
    };
    const BinOp op = kOps[rng_.next_below(std::size(kOps))];
    return Expr::binary(op, gen_expr(depth - 1), gen_expr(depth - 1));
  }

  LValue gen_lvalue() {
    LValue lv;
    if (!arrays_.empty() && rng_.chance(1, 4)) {
      lv.var = pick(arrays_);
      lv.index = gen_expr(1);
    } else {
      lv.var = pick(scalars_);
    }
    return lv;
  }

  // --- structured statements (inside blocks) --------------------------------

  StmtPtr gen_assign() {
    return Stmt::assign(gen_lvalue(), gen_expr(opt_.max_expr_depth));
  }

  void gen_block(std::vector<StmtPtr>& out, int depth, int budget) {
    const int n = 1 + static_cast<int>(
                          rng_.next_below(static_cast<std::uint64_t>(
                              std::max(1, std::min(budget, opt_.max_block_stmts)))));
    for (int i = 0; i < n; ++i) out.push_back(gen_structured(depth, budget / n));
  }

  StmtPtr gen_structured(int depth, int budget) {
    const auto roll = rng_.next_below(100);
    if (depth > 0 && budget > 1 &&
        roll < static_cast<std::uint64_t>(opt_.pct_conditional)) {
      std::vector<StmtPtr> then_body, else_body;
      gen_block(then_body, depth - 1, budget - 1);
      if (rng_.chance(1, 2)) gen_block(else_body, depth - 1, budget - 1);
      return Stmt::if_stmt(gen_expr(opt_.max_expr_depth), std::move(then_body),
                           std::move(else_body));
    }
    if (depth > 0 && budget > 1 && opt_.allow_structured_loops &&
        roll < static_cast<std::uint64_t>(opt_.pct_conditional + opt_.pct_loop)) {
      return gen_structured_loop(depth, budget);
    }
    return gen_assign();
  }

  /// A while loop guaranteed to terminate: fresh counter, `k < trip`
  /// predicate, single increment appended to the body. The counter init
  /// must precede the loop; since this function returns one statement,
  /// both are wrapped in an `if (1) { k := 0; while ... }` block.
  StmtPtr gen_structured_loop(int depth, int budget) {
    const VarId k = fresh_counter();
    counters_.push_back(k);
    const auto trip = rng_.next_in(0, opt_.max_loop_trip);

    std::vector<StmtPtr> body;
    gen_block(body, depth - 1, budget - 1);
    body.push_back(Stmt::assign(LValue{k, nullptr},
                                Expr::binary(BinOp::kAdd, Expr::variable(k),
                                             Expr::constant(1))));

    ExprPtr pred = Expr::binary(BinOp::kLt, Expr::variable(k),
                                Expr::constant(trip));
    if (rng_.chance(1, 4)) {
      // Occasionally conjoin a data-dependent condition; the counter
      // bound still guarantees termination.
      pred = Expr::binary(BinOp::kAnd, std::move(pred),
                          gen_expr(opt_.max_expr_depth));
    }

    std::vector<StmtPtr> wrapper;
    wrapper.push_back(Stmt::assign(LValue{k, nullptr}, Expr::constant(0)));
    wrapper.push_back(Stmt::while_stmt(std::move(pred), std::move(body)));
    return Stmt::if_stmt(Expr::constant(1), std::move(wrapper), {});
  }

  // --- top level (may be unstructured) --------------------------------------

  void emit(StmtPtr s) { prog_.body.push_back(std::move(s)); }

  /// Attach a label to the next statement emitted (or to a labeled skip
  /// at the end if nothing follows). Collected and flushed by emit_labeled.
  void emit_labeled(std::string label, StmtPtr s) {
    s->labels.push_back(std::move(label));
    emit(std::move(s));
  }

  void emit_toplevel(int budget) {
    while (budget > 0) {
      const auto roll = rng_.next_below(100);
      if (opt_.allow_unstructured && budget >= 4 && roll < 15) {
        budget -= emit_forward_skip(budget);
      } else if (opt_.allow_unstructured && budget >= 5 && roll < 30) {
        budget -= emit_unstructured_loop(budget);
      } else if (opt_.allow_unstructured && opt_.allow_irreducible &&
                 budget >= 7 && roll < 38) {
        budget -= emit_irreducible_gadget();
      } else {
        emit(gen_structured(opt_.max_depth, std::min(budget, 6)));
        budget -= 1;
      }
    }
  }

  /// `if e then goto Lskip else goto Lcont; Lcont: <stmts>; Lskip: skip;`
  int emit_forward_skip(int budget) {
    const std::string skip_label = fresh_label();
    const std::string cont_label = fresh_label();
    emit(Stmt::cond_goto(gen_expr(opt_.max_expr_depth), skip_label,
                         cont_label));
    const int inner = 1 + static_cast<int>(rng_.next_below(
                              static_cast<std::uint64_t>(std::min(3, budget - 3))));
    emit_labeled(cont_label, gen_structured(opt_.max_depth, 3));
    for (int i = 1; i < inner; ++i)
      emit(gen_structured(opt_.max_depth, 3));
    emit_labeled(skip_label, Stmt::skip());
    return inner + 2;
  }

  /// `k := 0; Lh: <stmts>; [early data-dependent exit;] k := k + 1;
  ///  if k < T then goto Lh else goto Lx; Lx: skip;`
  /// The optional early exit makes the loop multi-exit, exercising
  /// multiple loop-exit nodes and exit-direction switch routing.
  int emit_unstructured_loop(int budget) {
    const VarId k = fresh_counter();
    counters_.push_back(k);
    const std::string head = fresh_label();
    const std::string exit = fresh_label();
    emit(Stmt::assign(LValue{k, nullptr}, Expr::constant(0)));
    const int inner = 1 + static_cast<int>(rng_.next_below(
                              static_cast<std::uint64_t>(std::min(3, budget - 4))));
    emit_labeled(head, gen_structured(opt_.max_depth, 3));
    int extra = 0;
    if (rng_.chance(2, 5)) {
      // Early exit: a second way out of the cycle (always forward, so
      // termination is untouched).
      const std::string cont = fresh_label();
      emit(Stmt::cond_goto(gen_expr(opt_.max_expr_depth), exit, cont));
      emit_labeled(cont, gen_structured(opt_.max_depth, 3));
      extra = 2;
    }
    for (int i = 1; i < inner; ++i)
      emit(gen_structured(opt_.max_depth, 3));
    emit(Stmt::assign(LValue{k, nullptr},
                      Expr::binary(BinOp::kAdd, Expr::variable(k),
                                   Expr::constant(1))));
    emit(Stmt::cond_goto(
        Expr::binary(BinOp::kLt, Expr::variable(k),
                     Expr::constant(rng_.next_in(1, opt_.max_loop_trip))),
        head, exit));
    emit_labeled(exit, Stmt::skip());
    return inner + extra + 4;
  }

  /// The two-entry (irreducible) loop: branch into the middle of a
  /// counted loop. The counter is incremented on every path through the
  /// cycle and never reset inside it, so the gadget terminates.
  int emit_irreducible_gadget() {
    const VarId k = fresh_counter();
    counters_.push_back(k);
    const std::string l1 = fresh_label();
    const std::string l2 = fresh_label();
    const std::string exit = fresh_label();
    emit(Stmt::assign(LValue{k, nullptr}, Expr::constant(0)));
    emit(Stmt::cond_goto(gen_expr(opt_.max_expr_depth), l2, l1));
    emit_labeled(l1, gen_assign());
    emit_labeled(l2, gen_assign());
    emit(Stmt::assign(LValue{k, nullptr},
                      Expr::binary(BinOp::kAdd, Expr::variable(k),
                                   Expr::constant(1))));
    emit(Stmt::cond_goto(
        Expr::binary(BinOp::kLt, Expr::variable(k),
                     Expr::constant(rng_.next_in(1, opt_.max_loop_trip))),
        l1, exit));
    emit_labeled(exit, Stmt::skip());
    return 7;
  }

  GeneratorOptions opt_;
  support::SplitMix64 rng_;
  Program prog_;
  std::vector<VarId> scalars_;
  std::vector<VarId> arrays_;
  std::vector<VarId> counters_;
  int counter_seq_ = 0;
  int label_seq_ = 0;
};

}  // namespace

Program generate_program(const GeneratorOptions& options, std::uint64_t seed) {
  return Gen{options, seed}.run();
}

}  // namespace ctdf::lang
