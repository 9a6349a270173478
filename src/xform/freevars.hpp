// freevars.hpp — free-variable analysis used by the transformation rules.
//
// Rule R2c dist's, and rule R2d restricts, exactly the iterator-bound
// variables that occur free in the subexpression at hand; hoisting asks
// whether any frame variable does; the dead-let pass asks whether a let's
// variable does. This module computes those occurrence sets.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"

namespace proteus::xform {

/// Free variables of expressions, memoized per node. A node's set is built
/// from its children's memoized sets, so querying every node of a tree
/// costs one visit per node, not one walk of the subtree per query.
/// Function names referenced through resolved VarRef/FunCall nodes are
/// excluded (they are global). Variable names are interned to small
/// integers for the lifetime of the object.
class FreeVars {
 public:
  using Id = std::uint32_t;
  using Set = std::vector<Id>;  ///< sorted, no duplicates

  /// The free variables of `e` (empty for null). The reference stays
  /// valid for the lifetime of this object.
  const Set& of(const lang::ExprPtr& e);

  /// The interned id of `name`.
  Id id(const std::string& name);

  /// The name interned as `id`.
  [[nodiscard]] const std::string& name(Id id) const { return *names_[id]; }

  /// into := into ∪ from.
  static void unite(Set& into, const Set& from);

  /// Removes `id` from `set`; false when it was not there.
  static bool erase(Set& set, Id id);

 private:
  std::unordered_map<std::string, Id> ids_;
  std::vector<const std::string*> names_;  // by id: the keys of ids_
  // Keyed on the shared_ptr (not the raw address): holding the node alive
  // prevents a recycled allocation from aliasing a stale entry.
  std::unordered_map<lang::ExprPtr, Set> memo_;
};

/// True when `name` occurs free in `e`.
[[nodiscard]] bool occurs_free(const lang::ExprPtr& e,
                               const std::string& name);

}  // namespace proteus::xform
