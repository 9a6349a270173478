#include "core/proteus.hpp"

#include <map>
#include <utility>

#include "core/report.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "vl/check.hpp"

namespace proteus {

using interp::Value;
using interp::ValueList;
using lang::FunDef;
using lang::TypePtr;

/// Installs a Session-level tracer (when one is set) for the duration of
/// a run_* call.
using RunScope = obs::MaybeTracerScope;

namespace {

/// One run on the bytecode VM: converts `args` to the flat representation
/// (`param_type(i)` is argument i's source type), runs function `name` of
/// `module` (its entry expression when null) under one "run" span,
/// publishes the vm.* metrics into `cost` and converts the result back by
/// `result`. Everything happens inside the attempt, so a fallback starts
/// from a clean slate and a fault striking during conversion is absorbed
/// by the same ladder.
template <typename ParamType>
Value run_vm_once(const std::shared_ptr<const vm::Module>& module,
                  const vm::VMOptions& options, const std::string* name,
                  const ValueList& args, ParamType&& param_type,
                  const TypePtr& result, RunCost& cost) {
  cost = RunCost{};
  std::vector<kernels::VValue> vargs;
  vargs.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    vargs.push_back(kernels::from_boxed(args[i], param_type(i)));
  }
  vm::VM machine(module, options);
  vl::reset_stats();
  kernels::VValue out;
  {
    obs::Span span("run", "run.vm");
    out = name != nullptr ? machine.call_function(*name, std::move(vargs))
                          : machine.eval_entry();
    cost.vm_ops = machine.stats();
    cost.vector_work = vl::stats();
    span.counter("elements", cost.vector_work.element_work);
    span.counter("segments", cost.vector_work.segment_work);
    span.counter("instructions", cost.vm_ops.instructions);
    span.counter("calls", cost.vm_ops.calls);
  }
  publish_metrics(cost, "vm");
  return kernels::to_boxed(out, result);
}

/// One run on the reference interpreter: function `name` of `compiled`
/// (its entry expression when null) under one "run" span, publishing the
/// ref.* metrics into `cost`.
Value run_reference_once(const xform::Compiled& compiled,
                         const std::string* name, const ValueList& args,
                         RunCost& cost) {
  cost = RunCost{};
  interp::Interpreter interp(compiled.checked);
  Value result;
  {
    obs::Span span("run", "run.reference");
    result = name != nullptr ? interp.call_function(*name, args)
                             : interp.eval(compiled.entry_checked);
    cost.reference = interp.stats();
    span.counter("iterations", cost.reference.iterations);
    span.counter("scalar_ops", cost.reference.scalar_ops);
    span.counter("calls", cost.reference.calls);
  }
  publish_metrics(cost, "ref");
  return result;
}

}  // namespace

Session::Session(std::string_view program_source,
                 std::string_view entry_source,
                 const xform::PipelineOptions& options)
    : compiled_(std::make_shared<const xform::Compiled>(
          xform::compile(program_source, entry_source, options))) {
  prim_options_.shared_source_gather =
      options.flatten.broadcast_invariant_seq_args;
}

Session::Session(std::shared_ptr<const xform::Compiled> compiled,
                 const xform::PipelineOptions& options)
    : compiled_(std::move(compiled)) {
  PROTEUS_REQUIRE(EvalError, compiled_ != nullptr,
                  "Session requires a non-null compiled program");
  prim_options_.shared_source_gather =
      options.flatten.broadcast_invariant_seq_args;
}

const FunDef& Session::checked_fun(const std::string& name) const {
  const FunDef* f = compiled_->checked.find(name);
  PROTEUS_REQUIRE(EvalError, f != nullptr,
                  "session has no function named '" + name + "'");
  return *f;
}

TypePtr Session::result_type(const std::string& name) const {
  return checked_fun(name).result;
}

Value Session::run_ladder(bool vm, const std::string* name,
                          const FunDef* fun, const ValueList& args) {
  cost_ = RunCost{};
  degradations_.clear();
  RunScope tracing(tracer_);
  // One governor scope spans the whole ladder: a fallback attempt runs
  // under the same deadline and budget as the attempt it replaces.
  rt::GovernorScope governor(budget_);
  // The rungs, in order: the two VM modules (the -O0 one only when it is
  // distinct), then the interpreter, which is also the only rung of a
  // reference run.
  const std::shared_ptr<const vm::Module>& o1 = compiled_->module;
  const std::shared_ptr<const vm::Module>& o0 = compiled_->module_o0;
  const std::size_t n_vm = !vm ? 0 : (o0 != nullptr && o0 != o1) ? 2 : 1;
  static constexpr const char* kVmRungs[2] = {"vm", "vm-o0"};
  // rt.* events are buffered here and merged after publish_metrics (which
  // clears the registry) so they survive into last_cost().metrics.
  std::map<std::string, std::uint64_t> rt_events;
  auto merge_events = [&] {
    for (const auto& [event, count] : rt_events) cost_.metrics.add(event, count);
  };
  for (std::size_t i = 0;; ++i) {
    const char* engine = i < n_vm ? kVmRungs[i] : "interp";
    try {
      Value result;
      if (i < n_vm) {
        const vm::VMOptions options{prim_options_, vm_profile_,
                                    /*verify=*/false, vm_arena_,
                                    vm_admission_};
        // The pipeline already bytecode-verified the modules at assembly
        // time; re-verifying on every run would tax the dispatch benches.
        result = run_vm_once(
            i == 0 ? o1 : o0, options, fun != nullptr ? &fun->name : nullptr,
            args, [fun](std::size_t k) -> const TypePtr& {
              return fun->params[k].type;
            },
            fun != nullptr ? fun->result : compiled_->entry_checked->type,
            cost_);
      } else {
        result = run_reference_once(*compiled_, name, args, cost_);
      }
      merge_events();
      return result;
    } catch (const rt::RuntimeTrap& trap) {
      rt_events[std::string("rt.trap.") + trap_code(trap.trap())] += 1;
      const bool can_retry =
          fallback_ && i < n_vm && rt::retryable(trap.trap());
      if (!can_retry) {
        degradations_.push_back(std::string("trap in ") + engine + ": " +
                                trap.what());
        merge_events();
        throw;
      }
      const char* next = i + 1 < n_vm ? kVmRungs[i + 1] : "interp";
      rt_events[std::string("rt.fallback.") + engine] += 1;
      degradations_.push_back(std::string(engine) + " -> " + next +
                              " after " + trap.what());
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("run", std::string("rt.fallback.") + engine, trap.what());
      }
    }
  }
}

Value Session::run_reference(const std::string& name,
                             const ValueList& args) {
  return run_ladder(/*vm=*/false, &name, nullptr, args);
}

Value Session::run_vm(const std::string& name, const ValueList& args) {
  const FunDef& f = checked_fun(name);
  PROTEUS_REQUIRE(EvalError, f.params.size() == args.size(),
                  "'" + name + "' called with wrong argument count");
  return run_ladder(/*vm=*/true, &name, &f, args);
}

Value Session::run_entry_reference() {
  PROTEUS_REQUIRE(EvalError, compiled_->entry_checked != nullptr,
                  "session was created without an entry expression");
  return run_ladder(/*vm=*/false, nullptr, nullptr, {});
}

Value Session::run_entry_vm() {
  PROTEUS_REQUIRE(EvalError, compiled_->entry_vec != nullptr,
                  "session was created without an entry expression");
  return run_ladder(/*vm=*/true, nullptr, nullptr, {});
}

ModuleRunner::ModuleRunner(std::shared_ptr<const vm::Module> module)
    : module_(std::move(module)) {
  PROTEUS_REQUIRE(EvalError, module_ != nullptr,
                  "ModuleRunner requires a non-null module");
}

Value ModuleRunner::run(const std::string& name, const ValueList& args) {
  auto it = module_->fn_index.find(name);
  PROTEUS_REQUIRE(EvalError, it != module_->fn_index.end(),
                  "module has no function named '" + name + "'");
  return run_at(it->second, args);
}

Value ModuleRunner::run_entry() {
  PROTEUS_REQUIRE(EvalError, module_->entry >= 0,
                  "module was compiled without an entry expression");
  return run_at(static_cast<std::uint32_t>(module_->entry), {});
}

Value ModuleRunner::run_at(std::uint32_t index, const ValueList& args) {
  const vm::Signature* sig = module_->signature(index);
  const std::string& name = module_->functions[index].name;
  PROTEUS_REQUIRE(EvalError, sig != nullptr,
                  "module carries no calling convention for '" + name +
                      "' (internal functions are not callable)");
  PROTEUS_REQUIRE(EvalError, sig->params.size() == args.size(),
                  "'" + name + "' called with wrong argument count");
  RunScope tracing(tracer_);
  rt::GovernorScope governor(budget_);
  // Verification happened at load (vm::load_module); re-verifying per run
  // would defeat the point of caching the module.
  return run_vm_once(
      module_,
      {prim_options_, /*profile=*/false, /*verify=*/false, vm_arena_,
       vm_admission_},
      &name, args,
      [sig](std::size_t i) -> const TypePtr& { return sig->params[i]; },
      sig->result, cost_);
}

Value parse_value(std::string_view literal) {
  lang::ExprPtr expr = lang::parse_expression(literal);
  lang::Program empty;
  lang::ExprPtr typed = lang::typecheck_expression(empty, expr);
  interp::Interpreter interp(empty);
  return interp.eval(typed);
}

}  // namespace proteus
