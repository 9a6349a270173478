#include "xform/freevars.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace proteus::xform {

using namespace lang;

FreeVars::Id FreeVars::id(const std::string& name) {
  auto [it, fresh] = ids_.try_emplace(name, static_cast<Id>(names_.size()));
  if (fresh) names_.push_back(&it->first);
  return it->second;
}

void FreeVars::unite(Set& into, const Set& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  Set merged;
  merged.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
}

bool FreeVars::erase(Set& set, Id id) {
  const auto at = std::lower_bound(set.begin(), set.end(), id);
  if (at == set.end() || *at != id) return false;
  set.erase(at);
  return true;
}

const FreeVars::Set& FreeVars::of(const ExprPtr& e) {
  static const Set kNone;
  if (e == nullptr) return kNone;
  auto it = memo_.find(e);
  if (it != memo_.end()) return it->second;
  Set free;
  const auto add = [&](const ExprPtr& child) { unite(free, of(child)); };
  // Removes a binder from everything added so far: callers add the
  // binder's scope first, then the children it does not scope over.
  const auto bind = [&](const std::string& var) { erase(free, id(var)); };
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, VarRef>) {
          if (!node.is_function) free.push_back(id(node.name));
        } else if constexpr (std::is_same_v<T, Let>) {
          add(node.body);
          bind(node.var);
          add(node.init);
        } else if constexpr (std::is_same_v<T, If>) {
          add(node.cond);
          add(node.then_expr);
          add(node.else_expr);
        } else if constexpr (std::is_same_v<T, Iterator>) {
          add(node.filter);
          add(node.body);
          bind(node.var);
          add(node.domain);
        } else if constexpr (std::is_same_v<T, Call>) {
          add(node.callee);
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          add(node.fn);
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          for (const ExprPtr& a : node.elems) add(a);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          add(node.tuple);
        }
        // Literals add nothing, and neither does a lambda: it is fully
        // parameterized, so its body references only its own parameters.
      },
      e->node);
  return memo_.emplace(e, std::move(free)).first->second;
}

bool occurs_free(const ExprPtr& e, const std::string& name) {
  FreeVars fv;
  const FreeVars::Set& free = fv.of(e);
  return std::binary_search(free.begin(), free.end(), fv.id(name));
}

}  // namespace proteus::xform
