#include "translate/cover.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace ctdf::translate {

const char* to_string(CoverStrategy s) {
  switch (s) {
    case CoverStrategy::kSingleton: return "singleton";
    case CoverStrategy::kAliasClass: return "alias-class";
    case CoverStrategy::kComponent: return "component";
    case CoverStrategy::kUnified: return "unified";
  }
  CTDF_UNREACHABLE("bad CoverStrategy");
}

Cover Cover::make(const lang::SymbolTable& syms, CoverStrategy strategy) {
  Cover c;
  const auto vars = syms.all_vars();
  switch (strategy) {
    case CoverStrategy::kSingleton:
      for (lang::VarId v : vars) c.elements_.push_back({v});
      break;
    case CoverStrategy::kAliasClass:
      for (lang::VarId v : vars) {
        auto cls = syms.alias_class(v);
        if (std::find(c.elements_.begin(), c.elements_.end(), cls) ==
            c.elements_.end())
          c.elements_.push_back(std::move(cls));
      }
      break;
    case CoverStrategy::kComponent: {
      // Connected components of the alias graph (union-find over may-
      // alias pairs). Alias classes never span components, so every
      // access set is a single element.
      std::vector<std::size_t> parent(vars.size());
      for (std::size_t i = 0; i < vars.size(); ++i) parent[i] = i;
      const auto find = [&](std::size_t i) {
        while (parent[i] != i) i = parent[i] = parent[parent[i]];
        return i;
      };
      for (std::size_t i = 0; i < vars.size(); ++i)
        for (std::size_t j = i + 1; j < vars.size(); ++j)
          if (syms.may_alias(vars[i], vars[j])) parent[find(j)] = find(i);
      std::vector<std::vector<lang::VarId>> by_root(vars.size());
      for (std::size_t i = 0; i < vars.size(); ++i)
        by_root[find(i)].push_back(vars[i]);
      for (auto& component : by_root)
        if (!component.empty()) c.elements_.push_back(std::move(component));
      break;
    }
    case CoverStrategy::kUnified:
      c.elements_.push_back(vars);
      break;
  }

  // Access sets: C[x] = { c : c ∩ [x] ≠ ∅ }.
  c.access_sets_.resize(vars.size());
  for (lang::VarId v : vars) {
    const auto cls = syms.alias_class(v);
    for (Resource r = 0; r < c.elements_.size(); ++r) {
      const auto& elem = c.elements_[r];
      const bool hit = std::any_of(cls.begin(), cls.end(), [&](lang::VarId a) {
        return std::binary_search(elem.begin(), elem.end(), a);
      });
      if (hit) c.access_sets_[v].push_back(r);
    }
    CTDF_ASSERT_MSG(!c.access_sets_[v].empty(),
                    "a cover must cover every variable");
  }
  return c;
}

void Cover::access_set_union(std::span<const lang::VarId> vars,
                             std::vector<Resource>& out) const {
  std::size_t total = 0;
  for (lang::VarId v : vars) total += access_sets_[v].size();
  out.clear();
  out.reserve(total);
  for (lang::VarId v : vars)
    out.insert(out.end(), access_sets_[v].begin(), access_sets_[v].end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool Cover::eliminable(Resource r, const lang::SymbolTable& syms) const {
  const auto& elem = elements_[r];
  if (elem.size() != 1) return false;
  const lang::VarId v = elem.front();
  if (syms.is_array(v)) return false;
  if (syms.alias_class(v).size() != 1) return false;
  // The variable's access set must be exactly {r}: no other cover
  // element may cover it.
  return access_sets_[v].size() == 1 && access_sets_[v].front() == r;
}

lang::VarId Cover::singleton_var(Resource r) const {
  CTDF_ASSERT(elements_[r].size() == 1);
  return elements_[r].front();
}

std::string Cover::name(Resource r, const lang::SymbolTable& syms) const {
  std::string out = "{";
  for (std::size_t i = 0; i < elements_[r].size(); ++i) {
    if (i) out += ",";
    out += syms.name(elements_[r][i]);
  }
  return out + "}";
}

}  // namespace ctdf::translate
