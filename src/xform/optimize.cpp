#include "xform/optimize.hpp"

#include <utility>
#include <vector>

#include "vl/check.hpp"
#include "xform/freevars.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

/// Is `init` the replication pattern `dist^j(v, ib)` with a variable
/// source? Returns the source VarRef and depth through the out-params.
bool is_dist_of_var(const ExprPtr& init, ExprPtr* source, ExprPtr* counts,
                    int* depth) {
  const auto* call = as<PrimCall>(init);
  if (call == nullptr || call->op != Prim::kDist || call->depth < 1) {
    return false;
  }
  const auto* src = as<VarRef>(call->args[0]);
  const auto* cnt = as<VarRef>(call->args[1]);
  if (src == nullptr || src->is_function || cnt == nullptr ||
      cnt->is_function) {
    return false;
  }
  *source = call->args[0];
  *counts = call->args[1];
  *depth = call->depth;
  return true;
}

/// Rebuilds `e` with `f` applied to each child, or returns `e` itself
/// when `f` changes no child, so untouched subtrees stay shared. Leaves
/// Let to the caller; literals and variables have no children, and
/// un-flattened nodes (Iterator, Call, Lambda) come back intact.
template <typename F>
ExprPtr map_children(const ExprPtr& e, F&& f) {
  const auto map_all = [&](const std::vector<ExprPtr>& items,
                           std::vector<ExprPtr>& out) {
    bool changed = false;
    out.reserve(items.size());
    for (const ExprPtr& it : items) {
      out.push_back(f(it));
      changed = changed || out.back() != it;
    }
    return changed;
  };
  return std::visit(
      [&](const auto& node) -> ExprPtr {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, If>) {
          ExprPtr c = f(node.cond);
          ExprPtr t = f(node.then_expr);
          ExprPtr x = f(node.else_expr);
          if (c == node.cond && t == node.then_expr && x == node.else_expr) {
            return e;
          }
          return make_expr(If{std::move(c), std::move(t), std::move(x)},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, PrimCall>) {
          std::vector<ExprPtr> args;
          if (!map_all(node.args, args)) return e;
          return make_expr(
              PrimCall{node.op, node.depth, std::move(args), node.lifted},
              e->type, e->loc);
        } else if constexpr (std::is_same_v<T, FunCall>) {
          std::vector<ExprPtr> args;
          if (!map_all(node.args, args)) return e;
          return make_expr(
              FunCall{node.name, node.depth, std::move(args), node.lifted},
              e->type, e->loc);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          ExprPtr fn = f(node.fn);
          std::vector<ExprPtr> args;
          if (!map_all(node.args, args) && fn == node.fn) return e;
          return make_expr(IndirectCall{std::move(fn), node.depth,
                                        std::move(args), node.lifted},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, TupleExpr>) {
          std::vector<ExprPtr> elems;
          if (!map_all(node.elems, elems)) return e;
          return make_expr(TupleExpr{std::move(elems), node.depth}, e->type,
                           e->loc);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          ExprPtr t = f(node.tuple);
          if (t == node.tuple) return e;
          return make_expr(TupleGet{std::move(t), node.index, node.depth},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, SeqExpr>) {
          std::vector<ExprPtr> elems;
          if (!map_all(node.elems, elems)) return e;
          return make_expr(
              SeqExpr{std::move(elems), node.elem_type, node.depth}, e->type,
              e->loc);
        } else {
          return e;
        }
      },
      e->node);
}

bool is_flattened(const ExprPtr& e) {
  return as<Iterator>(e) == nullptr && as<Call>(e) == nullptr &&
         as<LambdaExpr>(e) == nullptr;
}

class SharedRows {
 public:
  ExprPtr rewrite(const ExprPtr& e) {
    if (e == nullptr) return nullptr;
    if (const auto* let = as<Let>(e)) return rewrite_let(*let, e);
    if (!is_flattened(e)) {
      throw TransformError(
          "optimizer expects flattened input (Iterator/Call/Lambda found)");
    }
    return map_children(e, [&](const ExprPtr& c) { return rewrite(c); });
  }

 private:
  ExprPtr rewrite_let(const Let& node, const ExprPtr& e) {
    ExprPtr init = rewrite(node.init);
    ExprPtr body = rewrite(node.body);

    ExprPtr source;
    ExprPtr counts;
    int dist_depth = 0;
    if (is_dist_of_var(init, &source, &counts, &dist_depth)) {
      bool all_uses_are_sources = true;
      ExprPtr replaced = replace_uses(body, node.var, source, counts,
                                      dist_depth, &all_uses_are_sources);
      if (all_uses_are_sources) {
        // Every use became a shared-row gather; the replication is dead.
        return replaced;
      }
    }
    if (init == node.init && body == node.body) return e;
    return make_expr(Let{node.var, std::move(init), std::move(body)}, e->type,
                     e->loc);
  }

  /// Replaces every `seq_index^{j+1}(V, idx)` use of `name` with
  /// `seq_index_inner^j(source, idx)` and every `length^{j+1}(V)` with
  /// `dist^j(length^j(source), counts)`. Any other use of `name` clears
  /// `*ok`. Scope-aware: shadowing binders stop the substitution.
  ExprPtr replace_uses(const ExprPtr& e, const std::string& name,
                       const ExprPtr& source, const ExprPtr& counts,
                       int dist_depth, bool* ok) {
    if (e == nullptr || !*ok) return e;
    const auto recurse = [&](const ExprPtr& child) {
      return replace_uses(child, name, source, counts, dist_depth, ok);
    };
    if (const auto* var = as<VarRef>(e)) {
      if (!var->is_function && var->name == name) *ok = false;  // bare use
      return e;
    }
    if (const auto* call = as<PrimCall>(e)) {
      if (call->op == Prim::kSeqIndex && call->depth == dist_depth + 1 &&
          call->args.size() == 2) {
        const auto* src = as<VarRef>(call->args[0]);
        if (src != nullptr && !src->is_function && src->name == name) {
          ExprPtr idx = recurse(call->args[1]);
          return make_expr(PrimCall{Prim::kSeqIndexInner, dist_depth,
                                    {source, std::move(idx)},
                                    {1, 1}},
                           e->type, e->loc);
        }
      }
      if (call->op == Prim::kLength && call->depth == dist_depth + 1 &&
          call->args.size() == 1) {
        const auto* src = as<VarRef>(call->args[0]);
        if (src != nullptr && !src->is_function && src->name == name) {
          // lengths of replicated rows == replicated lengths of the rows
          ExprPtr row_lengths = make_expr(
              PrimCall{Prim::kLength, dist_depth, {source}, {1}},
              Type::seq_n(Type::int_(), dist_depth), e->loc);
          return make_expr(PrimCall{Prim::kDist, dist_depth,
                                    {std::move(row_lengths), counts},
                                    {1, 1}},
                           e->type, e->loc);
        }
      }
    }
    if (const auto* let = as<Let>(e)) {
      ExprPtr init = recurse(let->init);
      // A binder shadowing the replicated variable, the shared source, or
      // the replication counts ends the region where the rewrite is sound.
      const auto* src_var = as<VarRef>(source);
      const auto* cnt_var = as<VarRef>(counts);
      ExprPtr body = let->body;
      if (let->var == name) {
        // Occurrences below refer to the inner binding; nothing to do.
      } else if ((src_var != nullptr && let->var == src_var->name) ||
                 (cnt_var != nullptr && let->var == cnt_var->name)) {
        // The shared source (or its counts) is shadowed below; remaining
        // uses of the replicated variable there cannot be rewritten.
        if (occurs_free(let->body, name)) *ok = false;
      } else {
        body = recurse(let->body);
      }
      if (init == let->init && body == let->body) return e;
      return make_expr(Let{let->var, std::move(init), std::move(body)},
                       e->type, e->loc);
    }
    return map_children(e, recurse);
  }
};

/// Dead-let removal in one bottom-up visit: each node returns its
/// rewritten form and, through `free`, that form's free variables, so a
/// let is dead exactly when its variable is missing from its rewritten
/// body's set — no walk of the body per let.
class DeadLets {
 public:
  ExprPtr rewrite(const ExprPtr& e) {
    FreeVars::Set free;
    return rewrite(e, free);
  }

 private:
  ExprPtr rewrite(const ExprPtr& e, FreeVars::Set& free) {
    if (e == nullptr) return nullptr;
    if (const auto* let = as<Let>(e)) {
      ExprPtr body = rewrite(let->body, free);
      if (!FreeVars::erase(free, vars_.id(let->var))) return body;  // dead
      FreeVars::Set init_free;
      ExprPtr init = rewrite(let->init, init_free);
      FreeVars::unite(free, init_free);
      if (init == let->init && body == let->body) return e;
      return make_expr(Let{let->var, std::move(init), std::move(body)},
                       e->type, e->loc);
    }
    if (const auto* var = as<VarRef>(e)) {
      if (!var->is_function) free.push_back(vars_.id(var->name));
      return e;
    }
    if (!is_flattened(e)) {
      // Iterator/Call/Lambda may legitimately appear when the pass is used
      // on un-flattened trees; leave them intact.
      free = vars_.of(e);
      return e;
    }
    return map_children(e, [&](const ExprPtr& c) {
      FreeVars::Set child_free;
      ExprPtr out = rewrite(c, child_free);
      FreeVars::unite(free, child_free);
      return out;
    });
  }

  FreeVars vars_;
};

}  // namespace

ExprPtr optimize_shared_rows(const ExprPtr& e) {
  return SharedRows().rewrite(e);
}

ExprPtr remove_dead_lets(const ExprPtr& e) { return DeadLets().rewrite(e); }

Program remove_dead_lets(const Program& program) {
  Program out;
  out.functions.reserve(program.functions.size());
  for (const FunDef& f : program.functions) {
    FunDef g = f;
    g.body = remove_dead_lets(f.body);
    out.functions.push_back(std::move(g));
  }
  return out;
}

Program optimize_shared_rows(const Program& flattened) {
  Program out;
  out.functions.reserve(flattened.functions.size());
  for (const FunDef& f : flattened.functions) {
    FunDef g = f;
    g.body = optimize_shared_rows(f.body);
    out.functions.push_back(std::move(g));
  }
  return out;
}

}  // namespace proteus::xform
