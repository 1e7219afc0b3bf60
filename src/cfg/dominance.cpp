#include "cfg/dominance.hpp"

#include "support/assert.hpp"

namespace ctdf::cfg {

DomTree::DomTree(const Graph& g, DomDirection dir) : dir_(dir) {
  const auto build = [&](const auto& view) {
    root_ = view.root();
    support::build_order(view, algo_);
    support::build_dominators(view, algo_);
  };
  if (dir == DomDirection::kForward)
    build(ForwardView{g});
  else
    build(ReverseView{g});
  CTDF_ASSERT_MSG(algo_.postorder.size() == g.size(),
                  "graph must be connected (validate() first)");

  // Children lists, ascending per parent, in one table: child_begin_[n]
  // counts n's children, then becomes the offset of its first one.
  child_begin_.assign(g.size() + 1, 0);
  for (NodeId n : g.all_nodes())
    if (idom(n).valid()) ++child_begin_[idom(n).index() + 1];
  for (std::size_t i = 1; i < child_begin_.size(); ++i)
    child_begin_[i] += child_begin_[i - 1];
  child_ids_.resize(child_begin_.back());
  std::vector<std::uint32_t> fill(child_begin_.begin(), child_begin_.end() - 1);
  for (NodeId n : g.all_nodes())
    if (idom(n).valid()) child_ids_[fill[idom(n).index()]++] = n;
}

}  // namespace ctdf::cfg
