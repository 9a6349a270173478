#include "xform/flatten.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "vl/check.hpp"
#include "lang/printer.hpp"
#include "obs/tracer.hpp"
#include "xform/freevars.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

enum class VarClass : std::uint8_t {
  kBroadcast,  // bound at depth 0 (parameters, outer lets): depth-0 value
  kFrame,      // bound at depth >= 1: holds a depth-j frame at depth j
};

struct VarInfo {
  VarClass cls = VarClass::kBroadcast;
  TypePtr type;  // current (frame) type
};

/// Variable names are interned per flattening run.
using VarId = FreeVars::Id;
using VarSet = FreeVars::Set;

/// Lexical transformation context: a chain of scopes, innermost first.
/// Each scope lives in the frame of the tau call that opens it, so a child
/// never outlives its parent and nothing is copied down the tree.
struct Ctx {
  struct Binding {
    VarId var;
    VarInfo info;
  };

  const Ctx* parent = nullptr;
  /// Frame variables bound outside this scope are invisible inside it: an
  /// iterator body or a hoisted subexpression sees only broadcast ones.
  bool barrier = false;
  std::vector<Binding> bindings;  // a later binding shadows an earlier one
  /// A variable holding a conformable depth-j frame, and its type (only
  /// meaningful when depth >= 1); null outside any frame.
  const std::string* witness = nullptr;
  const TypePtr* witness_type = nullptr;

  /// A scope nested in `outer`, inheriting its witness.
  static Ctx nested(const Ctx& outer) {
    Ctx c;
    c.parent = &outer;
    c.witness = outer.witness;
    c.witness_type = outer.witness_type;
    return c;
  }

  /// The variable as visible here, or nullptr when unbound.
  [[nodiscard]] const VarInfo* find(VarId var) const {
    bool crossed = false;
    for (const Ctx* c = this; c != nullptr; c = c->parent) {
      for (auto it = c->bindings.rbegin(); it != c->bindings.rend(); ++it) {
        if (it->var != var) continue;
        if (crossed && it->info.cls == VarClass::kFrame) return nullptr;
        return &it->info;
      }
      crossed = crossed || c->barrier;
    }
    return nullptr;
  }

  [[nodiscard]] bool is_frame(VarId var) const {
    const VarInfo* info = find(var);
    return info != nullptr && info->cls == VarClass::kFrame;
  }
};

struct Res {
  ExprPtr expr;
  bool frame = false;  // true: depth-j frame; false: depth-0 broadcast value
};

TypePtr strip_seq(const TypePtr& t, int k) {
  TypePtr cur = t;
  for (int i = 0; i < k; ++i) {
    PROTEUS_REQUIRE(TransformError, cur->is_seq(),
                    "internal: stripping a non-sequence type");
    cur = cur->elem();
  }
  return cur;
}

class Flattener {
 public:
  Flattener(const Program& input, NameGen& names,
            const FlattenOptions& options)
      : input_(input), names_(names), opts_(options) {}

  FlattenedProgram run() {
    for (const FunDef& f : input_.functions) {
      transform_function(f);
    }
    scan_function_values();
    drain_worklist();
    return {std::move(output_), rule_counts()};
  }

  ExprPtr run_expression(const ExprPtr& expr) {
    for (const FunDef& f : input_.functions) {
      transform_function(f);
    }
    Ctx ctx;
    Res r = tau(expr, 0, ctx);
    scan_function_values();
    scan_expr_function_values(expr);
    drain_worklist();
    return r.expr;
  }

  FlattenedProgram take_program() {
    return {std::move(output_), rule_counts()};
  }

 private:
  // --- program-level driving --------------------------------------------------

  void transform_function(const FunDef& f) {
    Ctx ctx;
    for (const Param& p : f.params) {
      ctx.bindings.push_back(
          {free_.id(p.name), {VarClass::kBroadcast, p.type}});
    }
    Res r = tau(f.body, 0, ctx);
    FunDef out = f;
    out.body = r.expr;
    output_.functions.push_back(std::move(out));
  }

  /// Functions whose *value* may be applied through an IndirectCall at
  /// depth 1 need their extensions generated ("the number of parallel
  /// extensions ... is a static property of the program"). That covers
  /// (a) every function referenced as a value in the program, and (b) —
  /// because callers of the library can pass any function value for a
  /// function-typed parameter — every function whose signature matches
  /// some function-typed parameter type.
  void scan_function_values() {
    for (const FunDef& f : input_.functions) {
      scan_expr_function_values(f.body);
    }
    std::vector<TypePtr> fun_param_types;
    for (const FunDef& f : input_.functions) {
      for (const Param& p : f.params) {
        if (p.type->is_fun()) fun_param_types.push_back(p.type);
      }
    }
    for (const FunDef& f : input_.functions) {
      bool extensible = false;
      for (const Param& p : f.params) {
        if (!p.type->is_fun()) extensible = true;
      }
      if (!extensible || f.params.empty()) continue;
      std::vector<TypePtr> params;
      for (const Param& p : f.params) params.push_back(p.type);
      TypePtr sig = Type::fun(std::move(params), f.result);
      for (const TypePtr& t : fun_param_types) {
        if (equal(sig, t)) {
          request_extension(f.name);
          break;
        }
      }
    }
  }

  void scan_expr_function_values(const ExprPtr& e) {
    if (e == nullptr) return;
    if (const auto* var = as<VarRef>(e)) {
      if (var->is_function) request_extension(var->name);
      return;
    }
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, Let>) {
            scan_expr_function_values(node.init);
            scan_expr_function_values(node.body);
          } else if constexpr (std::is_same_v<T, If>) {
            scan_expr_function_values(node.cond);
            scan_expr_function_values(node.then_expr);
            scan_expr_function_values(node.else_expr);
          } else if constexpr (std::is_same_v<T, Iterator>) {
            scan_expr_function_values(node.domain);
            scan_expr_function_values(node.filter);
            scan_expr_function_values(node.body);
          } else if constexpr (std::is_same_v<T, PrimCall> ||
                               std::is_same_v<T, FunCall>) {
            for (const ExprPtr& a : node.args) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, IndirectCall>) {
            scan_expr_function_values(node.fn);
            for (const ExprPtr& a : node.args) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, TupleExpr> ||
                               std::is_same_v<T, SeqExpr>) {
            for (const ExprPtr& a : node.elems) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, TupleGet>) {
            scan_expr_function_values(node.tuple);
          }
        },
        e->node);
  }

  void request_extension(const std::string& base) {
    if (generated_.insert(base).second) worklist_.push_back(base);
  }

  void drain_worklist() {
    while (!worklist_.empty()) {
      std::string base = std::move(worklist_.back());
      worklist_.pop_back();
      generate_extension(base);
    }
  }

  /// R0 (Section 5): f^1(V1..Vn) is derived by enclosing f's body in one
  /// canonical iterator that enumerates the argument frames, then
  /// flattening the result.
  void generate_extension(const std::string& base) {
    const FunDef* f = input_.find(base);
    PROTEUS_REQUIRE(TransformError, f != nullptr,
                    "extension requested for unknown function '" + base + "'");

    std::vector<Param> ext_params;
    ext_params.reserve(f->params.size());
    int first_frame = -1;
    for (std::size_t k = 0; k < f->params.size(); ++k) {
      const Param& p = f->params[k];
      Param q;
      q.name = names_.fresh(("V" + p.name).c_str());
      q.type = p.type->is_fun() ? p.type : Type::seq(p.type);
      if (!p.type->is_fun() && first_frame < 0) {
        first_frame = static_cast<int>(k);
      }
      ext_params.push_back(std::move(q));
    }
    PROTEUS_REQUIRE(TransformError, first_frame >= 0,
                    "cannot extend '" + base +
                        "': every parameter is function-typed");

    // [ _i <- range1(#V_first) :
    //     let p1 = V1[_i] in ... let pn = Vn[_i] in body ]
    std::string ivar = names_.fresh("i");
    const Param& vf = ext_params[static_cast<std::size_t>(first_frame)];
    ExprPtr domain = nb::prim(
        Prim::kRange1,
        {nb::prim(Prim::kLength, {nb::var(vf.name, vf.type)})});

    ExprPtr inner = f->body;
    for (std::size_t k = f->params.size(); k-- > 0;) {
      const Param& orig = f->params[k];
      const Param& ext = ext_params[k];
      ExprPtr bound =
          orig.type->is_fun()
              ? nb::var(ext.name, ext.type)
              : nb::prim(Prim::kSeqIndex, {nb::var(ext.name, ext.type),
                                           nb::var(ivar, Type::int_())});
      inner = nb::let(orig.name, std::move(bound), inner);
    }
    ExprPtr iter = nb::iterator(ivar, std::move(domain), std::move(inner));

    Ctx ctx;
    for (const Param& p : ext_params) {
      ctx.bindings.push_back(
          {free_.id(p.name), {VarClass::kBroadcast, p.type}});
    }
    Res r = tau(iter, 0, ctx);

    FunDef out;
    out.name = extension_name(base, 1);
    out.params = std::move(ext_params);
    out.result = Type::seq(f->result);
    out.body = r.expr;
    out.extension_of = base;
    out.extension_depth = 1;
    output_.functions.push_back(std::move(out));
  }

  // --- the transformation tau(e, j) -------------------------------------------

  RuleCounts rule_counts() const {
    RuleCounts out;
    for (const auto& [name, count] : rules_) out[name] += count;
    return out;
  }

  /// Tallies a rule firing and, when a tracer is installed, records it
  /// as a "rule" instant event carrying the depth and a source snippet
  /// (the KIDS-style derivation annotation of Section 5). The textual
  /// derivation and the Chrome trace both render from these events.
  void log_rule(const char* rule, const ExprPtr& e, int j) {
    const auto it =
        std::find_if(rules_.begin(), rules_.end(),
                     [&](const auto& r) { return r.first == rule; });
    if (it != rules_.end()) {
      it->second += 1;
    } else {
      rules_.emplace_back(rule, 1);
    }
    obs::Tracer* t = obs::tracer();
    if (t == nullptr) return;
    std::string text = to_text(e);
    if (text.size() > 64) text = text.substr(0, 61) + "...";
    t->instant("rule", rule, std::move(text),
               {{"depth", static_cast<std::uint64_t>(j)}});
  }

  Res tau(const ExprPtr& e, int j, const Ctx& ctx) {
    // Invariant-hoisting: a subexpression with no free frame variables is
    // uniform across the depth-j frame; transform it once at depth 0.
    if (j >= 1 && !has_free_frame_var(e, ctx)) {
      if (as<IntLit>(e) == nullptr && as<VarRef>(e) == nullptr &&
          as<RealLit>(e) == nullptr && as<BoolLit>(e) == nullptr) {
        log_rule("hoist", e, j);
      }
      Ctx base;
      base.parent = &ctx;
      base.barrier = true;
      Res r = tau(e, 0, base);
      return {r.expr, false};
    }
    return std::visit(
        [&](const auto& node) { return tau_node(node, e, j, ctx); }, e->node);
  }

  bool has_free_frame_var(const ExprPtr& e, const Ctx& ctx) {
    for (const VarId var : free_.of(e)) {
      if (ctx.is_frame(var)) return true;
    }
    return false;
  }

  struct FrameVar {
    const std::string* name;
    const VarInfo* info;
  };

  /// The frame variables of `ctx` among `vars`, in name order (the order
  /// the rebinding lets are emitted in).
  std::vector<FrameVar> frame_vars_by_name(const VarSet& vars,
                                           const Ctx& ctx) const {
    std::vector<FrameVar> out;
    for (const VarId var : vars) {
      const VarInfo* info = ctx.find(var);
      if (info != nullptr && info->cls == VarClass::kFrame) {
        out.push_back({&free_.name(var), info});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const FrameVar& x, const FrameVar& y) {
                return *x.name < *y.name;
              });
    return out;
  }

  // R2b: constants are unchanged (depth-0, broadcast).
  Res tau_node(const IntLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }
  Res tau_node(const RealLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }
  Res tau_node(const BoolLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }

  // R2a: identifiers translate to themselves; frame variables carry their
  // frame type.
  Res tau_node(const VarRef& n, const ExprPtr& e, int j, const Ctx& ctx) {
    log_rule("R2a", e, j);
    const VarInfo* info = ctx.find(free_.id(n.name));
    if (info == nullptr) {
      // Top-level function name used as a value (R2f: functions are fully
      // parameterized, hence independent of surrounding iterators).
      PROTEUS_REQUIRE(TransformError, n.is_function,
                      "unbound variable '" + n.name + "' during flattening");
      return {e, false};
    }
    ExprPtr var = nb::var(n.name, info->type);
    return {var, info->cls == VarClass::kFrame};
  }

  // R2e: let.
  Res tau_node(const Let& n, const ExprPtr& e0, int j, const Ctx& ctx) {
    log_rule("R2e", e0, j);
    Res init = tau(n.init, j, ctx);
    Ctx inner = Ctx::nested(ctx);
    inner.bindings.push_back(
        {free_.id(n.var),
         {init.frame ? VarClass::kFrame : VarClass::kBroadcast,
          init.expr->type}});
    Res body = tau(n.body, j, inner);
    return {nb::let(n.var, init.expr, body.expr), body.frame};
  }

  // R2d: conditional.
  Res tau_node(const If& n, const ExprPtr&, int j, const Ctx& ctx) {
    Res cond = tau(n.cond, j, ctx);
    if (!cond.frame) {
      // Uniform condition: stays an ordinary conditional.
      Res t = tau(n.then_expr, j, ctx);
      Res f = tau(n.else_expr, j, ctx);
      const bool frame = t.frame || f.frame;
      if (frame && !t.frame) t = Res{lift(t.expr, j, ctx), true};
      if (frame && !f.frame) f = Res{lift(f.expr, j, ctx), true};
      return {nb::if_(cond.expr, t.expr, f.expr), frame};
    }

    PROTEUS_REQUIRE(TransformError, j >= 1,
                    "internal: frame-valued condition at depth 0");
    log_rule("R2d", n.cond, j);
    const TypePtr mask_type = cond.expr->type;  // Seq^j(bool)
    std::string mname = names_.fresh("m");
    std::string nmname = names_.fresh("nm");
    ExprPtr mvar = nb::var(mname, mask_type);
    ExprPtr nmvar = nb::var(nmname, mask_type);
    ExprPtr not_m = nb::prim_d(Prim::kNot, j, {mvar}, {1}, mask_type);

    ExprPtr r2 = guarded_branch(n.then_expr, mvar, j, ctx);
    ExprPtr r3 = guarded_branch(n.else_expr, nmvar, j, ctx);

    std::string r2name = names_.fresh("R2");
    std::string r3name = names_.fresh("R3");
    ExprPtr r2var = nb::var(r2name, r2->type);
    ExprPtr r3var = nb::var(r3name, r3->type);
    ExprPtr combined = combine_ext(mvar, r2var, r3var, j);

    ExprPtr result =
        nb::let(mname, cond.expr,
                nb::let(nmname, not_m,
                        nb::let(r2name, r2, nb::let(r3name, r3, combined))));
    return {result, true};
  }

  /// One guarded branch of rule R2d: evaluate the branch with every frame
  /// variable restricted by `mask`, unless the mask has no true leaf, in
  /// which case yield the empty frame.
  ExprPtr guarded_branch(const ExprPtr& branch, const ExprPtr& mask_var,
                         int j, const Ctx& ctx) {
    const TypePtr branch_frame_type =
        Type::seq_n(branch->type, j);  // Seq^j(T)

    // Restricted environment: rebind occurring frame variables, and bind a
    // fresh witness with the restricted shape (restrict(M, M), which the
    // paper also uses for the guard).
    Ctx inner = Ctx::nested(ctx);
    const std::string wname = names_.fresh("w");
    ExprPtr witness_init = restrict_ext(mask_var, mask_var, j);
    inner.witness = &wname;
    inner.witness_type = &witness_init->type;

    std::vector<std::pair<std::string, ExprPtr>> rebinds;
    rebinds.emplace_back(wname, witness_init);
    inner.bindings.push_back(
        {free_.id(wname), {VarClass::kFrame, witness_init->type}});
    for (const FrameVar& v : frame_vars_by_name(free_.of(branch), ctx)) {
      ExprPtr vvar = nb::var(*v.name, v.info->type);
      rebinds.emplace_back(*v.name, restrict_ext(vvar, mask_var, j));
    }

    Res body = tau(branch, j, inner);
    ExprPtr value = body.frame ? body.expr : lift(body.expr, j, inner);
    for (auto it = rebinds.rbegin(); it != rebinds.rend(); ++it) {
      value = nb::let(it->first, it->second, value);
    }

    ExprPtr guard =
        nb::prim_d(Prim::kAnyTrue, 0, {mask_var}, {}, Type::bool_());
    ExprPtr empty = nb::prim_d(Prim::kEmptyFrame, j, {mask_var}, {},
                               branch_frame_type);
    return nb::if_(guard, value, empty);
  }

  /// restrict at extension depth j-1: keeps the outer structure of the
  /// depth-j frames and filters the deepest level.
  ExprPtr restrict_ext(const ExprPtr& v, const ExprPtr& mask, int j) {
    if (j == 1) return nb::prim(Prim::kRestrict, {v, mask});
    return nb::prim_d(Prim::kRestrict, j - 1, {v, mask}, {1, 1}, v->type);
  }

  ExprPtr combine_ext(const ExprPtr& m, const ExprPtr& t, const ExprPtr& f,
                      int j) {
    if (j == 1) return nb::prim(Prim::kCombine, {m, t, f});
    return nb::prim_d(Prim::kCombine, j - 1, {m, t, f}, {1, 1, 1}, t->type);
  }

  // R2c: the iterator (canonical form [i <- range1(e1) : body]).
  Res tau_node(const Iterator& n, const ExprPtr& e0, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.filter == nullptr,
                    "internal: filtered iterator survived canonicalization");
    const auto* dom = as<PrimCall>(n.domain);
    PROTEUS_REQUIRE(TransformError,
                    dom != nullptr && dom->op == Prim::kRange1,
                    "internal: non-canonical iterator domain");
    log_rule("R2c", e0, j);

    Res ib = tau(dom->args[0], j, ctx);
    ExprPtr ib_expr = ib.expr;
    if (j >= 1 && !ib.frame) {
      // Replicate the uniform bound across the frame ("we rely on parallel
      // extensions ... to replicate such single values").
      ib_expr = lift(ib_expr, j, ctx);
    }
    std::string ibname = names_.fresh("ib");
    ExprPtr ibvar = nb::var(ibname, ib_expr->type);

    // i = range1^j(ib): the depth-(j+1) index frame.
    ExprPtr index_frame =
        j == 0 ? nb::prim(Prim::kRange1, {ibvar})
               : nb::prim_d(Prim::kRange1, j, {ibvar}, {1},
                            Type::seq_n(Type::seq(Type::int_()), j));

    // Broadcast variables remain visible; stale frame variables (not
    // dist'ed below) are dropped.
    Ctx inner;
    inner.parent = &ctx;
    inner.barrier = true;

    // dist every frame variable occurring in the body through the new
    // iterator level.
    std::vector<std::pair<std::string, ExprPtr>> rebinds;
    if (j >= 1) {
      for (const FrameVar& v : frame_vars_by_name(free_.of(n.body), ctx)) {
        if (*v.name == n.var) continue;
        const TypePtr& type = v.info->type;
        ExprPtr vvar = nb::var(*v.name, type);
        ExprPtr dist = nb::prim_d(Prim::kDist, j, {vvar, ibvar}, {1, 1},
                                  Type::seq_n(strip_seq(type, j), j + 1));
        rebinds.emplace_back(*v.name, dist);
        inner.bindings.push_back(
            {free_.id(*v.name), {VarClass::kFrame, dist->type}});
      }
    }

    // Bind the index variable and a fresh, unshadowable witness alias.
    const TypePtr index_type = index_frame->type;
    inner.bindings.push_back(
        {free_.id(n.var), {VarClass::kFrame, index_type}});
    const std::string wname = names_.fresh("w");
    inner.bindings.push_back(
        {free_.id(wname), {VarClass::kFrame, index_type}});
    inner.witness = &wname;
    inner.witness_type = &index_type;

    Res body = tau(n.body, j + 1, inner);
    ExprPtr value =
        body.frame ? body.expr : lift(body.expr, j + 1, inner);

    for (auto it = rebinds.rbegin(); it != rebinds.rend(); ++it) {
      value = nb::let(it->first, it->second, value);
    }
    value = nb::let(wname, nb::var(n.var, index_type), value);
    value = nb::let(n.var, index_frame, value);
    value = nb::let(ibname, ib_expr, value);
    return {value, j >= 1};
  }

  // R2c application rule, primitive case.
  Res tau_node(const PrimCall& n, const ExprPtr& e, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended primitive call");
    std::vector<Res> args;
    args.reserve(n.args.size());
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      return {rebuild_prim(n.op, args, e), false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      if (!r.frame && !opts_.broadcast_invariant_seq_args &&
          r.expr->type->is_seq()) {
        // Ablation mode: replicate invariant sequence arguments (the
        // behaviour Section 4.5 calls a waste of time and space).
        r = Res{lift(r.expr, j, ctx), true};
      }
      exprs.push_back(r.expr);
      lifted.push_back(r.frame ? 1 : 0);
    }
    return {nb::prim_d(n.op, j, std::move(exprs), std::move(lifted),
                       Type::seq_n(e->type, j)),
            true};
  }

  ExprPtr rebuild_prim(Prim op, const std::vector<Res>& args,
                       const ExprPtr& e) {
    std::vector<ExprPtr> exprs;
    exprs.reserve(args.size());
    for (const Res& r : args) exprs.push_back(r.expr);
    return make_expr(PrimCall{op, 0, std::move(exprs), {}}, e->type, e->loc);
  }

  // R2c application rule, user-function case: invariant non-function
  // arguments are converted to depth-j frames "in a uniform way"
  // (Section 3), function-typed arguments stay depth-0 values.
  Res tau_node(const FunCall& n, const ExprPtr& e, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended function call");
    std::vector<Res> args;
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      std::vector<ExprPtr> exprs;
      for (const Res& r : args) exprs.push_back(r.expr);
      return {make_expr(FunCall{n.name, 0, std::move(exprs), {}}, e->type,
                        e->loc),
              false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      const bool is_fun_arg = r.expr->type->is_fun();
      if (!is_fun_arg && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
      lifted.push_back(is_fun_arg ? 0 : 1);
    }
    request_extension(n.name);
    log_rule("R0", e, j);
    return {nb::fun_call(n.name, j, std::move(exprs), std::move(lifted),
                         Type::seq_n(e->type, j)),
            true};
  }

  Res tau_node(const IndirectCall& n, const ExprPtr& e, int j,
               const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended indirect call");
    Res fn = tau(n.fn, j, ctx);
    PROTEUS_REQUIRE(TransformError, !fn.frame,
                    "function values cannot vary across a frame");
    std::vector<Res> args;
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      std::vector<ExprPtr> exprs;
      for (const Res& r : args) exprs.push_back(r.expr);
      return {make_expr(IndirectCall{fn.expr, 0, std::move(exprs), {}},
                        e->type, e->loc),
              false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      const bool is_fun_arg = r.expr->type->is_fun();
      if (!is_fun_arg && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
      lifted.push_back(is_fun_arg ? 0 : 1);
    }
    return {make_expr(
                IndirectCall{fn.expr, j, std::move(exprs), std::move(lifted)},
                Type::seq_n(e->type, j), e->loc),
            true};
  }

  Res tau_node(const TupleExpr& n, const ExprPtr& e, int j, const Ctx& ctx) {
    std::vector<Res> elems;
    bool any_frame = false;
    for (const ExprPtr& el : n.elems) {
      elems.push_back(tau(el, j, ctx));
      any_frame = any_frame || elems.back().frame;
    }
    std::vector<ExprPtr> exprs;
    for (Res& r : elems) {
      if (any_frame && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
    }
    const int depth = any_frame ? j : 0;
    return {make_expr(TupleExpr{std::move(exprs), depth},
                      any_frame ? Type::seq_n(e->type, j) : e->type, e->loc),
            any_frame};
  }

  Res tau_node(const TupleGet& n, const ExprPtr& e, int j, const Ctx& ctx) {
    Res tuple = tau(n.tuple, j, ctx);
    if (!tuple.frame) {
      return {make_expr(TupleGet{tuple.expr, n.index, 0}, e->type, e->loc),
              false};
    }
    return {make_expr(TupleGet{tuple.expr, n.index, j},
                      Type::seq_n(e->type, j), e->loc),
            true};
  }

  Res tau_node(const SeqExpr& n, const ExprPtr& e, int j, const Ctx& ctx) {
    std::vector<Res> elems;
    bool any_frame = false;
    for (const ExprPtr& el : n.elems) {
      elems.push_back(tau(el, j, ctx));
      any_frame = any_frame || elems.back().frame;
    }
    std::vector<ExprPtr> exprs;
    for (Res& r : elems) {
      if (any_frame && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
    }
    const int depth = any_frame ? j : 0;
    return {make_expr(SeqExpr{std::move(exprs), n.elem_type, depth},
                      any_frame ? Type::seq_n(e->type, j) : e->type, e->loc),
            any_frame};
  }

  Res tau_node(const Call&, const ExprPtr&, int, const Ctx&) {
    throw TransformError("flatten requires a checked program (Call node)");
  }

  Res tau_node(const LambdaExpr&, const ExprPtr&, int, const Ctx&) {
    throw TransformError(
        "flatten requires lambda-lifted input (LambdaExpr node)");
  }

  /// Replicates a depth-0 value to a depth-j frame conformable with the
  /// current witness:
  ///   j == 1: dist(e, #W)
  ///   j >= 2: insert(dist(e, #extract(W, j-1)), W, j-1)
  /// (Section 3's uniform conversion, composed from Table 2 and Section 4
  /// primitives.)
  ExprPtr lift(const ExprPtr& value, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, j >= 1 && ctx.witness != nullptr,
                    "internal: no frame witness available for replication");
    PROTEUS_REQUIRE(TransformError, !value->type->is_fun(),
                    "function values cannot be replicated into frames");
    ExprPtr w = nb::var(*ctx.witness, *ctx.witness_type);
    if (j == 1) {
      ExprPtr n = nb::prim(Prim::kLength, {w});
      return nb::prim(Prim::kDist, {value, n});
    }
    ExprPtr flat = nb::prim_d(Prim::kExtract, 0,
                              {w, nb::int_lit(j - 1)}, {},
                              strip_seq(*ctx.witness_type, j - 1));
    ExprPtr n = nb::prim(Prim::kLength, {flat});
    ExprPtr d = nb::prim(Prim::kDist, {value, n});
    return nb::prim_d(Prim::kInsert, 0, {d, w, nb::int_lit(j - 1)}, {},
                      Type::seq_n(value->type, j));
  }

  const Program& input_;
  NameGen& names_;
  FlattenOptions opts_;
  Program output_;
  /// Firings per rule name; names are literals, so few distinct pointers.
  std::vector<std::pair<const char*, std::uint64_t>> rules_;
  std::set<std::string> generated_;
  std::vector<std::string> worklist_;
  FreeVars free_;
};

}  // namespace

FlattenedProgram flatten(const Program& canonical, NameGen& names,
                         const FlattenOptions& options) {
  return Flattener(canonical, names, options).run();
}

ExprPtr flatten_expression(const Program& canonical, const ExprPtr& expr,
                           NameGen& names, FlattenedProgram* out,
                           const FlattenOptions& options) {
  Flattener f(canonical, names, options);
  ExprPtr result = f.run_expression(expr);
  if (out != nullptr) *out = f.take_program();
  return result;
}

}  // namespace proteus::xform
