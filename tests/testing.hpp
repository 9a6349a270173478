// testing.hpp — shared helpers for the proteus-vec test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/proteus.hpp"

namespace proteus::testing {

/// Builds a boxed value from a P literal (e.g. "[[1,2],[3]]").
inline interp::Value val(std::string_view literal) {
  return parse_value(literal);
}

/// Runs `fn(args...)` on every engine of `session` — the reference
/// interpreter (the oracle) and the bytecode VM, on the optimized module,
/// on the -O0 module when that is distinct, and with the plan-backed
/// arena — asserts they all agree, and returns the (reference) result for
/// further checks. The -O0 leg runs with the default kernel options, so
/// `session` must be compiled with the default flattening options.
inline interp::Value both(Session& session, const std::string& fn,
                          const interp::ValueList& args) {
  interp::Value reference = session.run_reference(fn, args);
  interp::Value bytecode = session.run_vm(fn, args);
  EXPECT_EQ(reference, bytecode)
      << fn << ": reference " << interp::to_text(reference) << " vs vm "
      << interp::to_text(bytecode);
  const xform::Compiled& c = session.compiled();
  if (c.module_o0 != nullptr && c.module_o0 != c.module) {
    const lang::FunDef* def = c.checked.find(fn);
    std::vector<kernels::VValue> flat;
    for (std::size_t i = 0; i < args.size(); ++i) {
      flat.push_back(kernels::from_boxed(args[i], def->params[i].type));
    }
    vm::VM unfused(c.module_o0);
    interp::Value o0 = kernels::to_boxed(
        unfused.call_function(fn, std::move(flat)), def->result);
    EXPECT_EQ(reference, o0)
        << fn << ": reference " << interp::to_text(reference)
        << " vs vm -O0 " << interp::to_text(o0);
  }
  // And once more with the plan-backed arena allocator: recycling
  // buffers through memory-plan slots must be observationally invisible.
  session.set_arena(true);
  interp::Value arena = session.run_vm(fn, args);
  session.set_arena(false);
  EXPECT_EQ(reference, arena)
      << fn << ": reference " << interp::to_text(reference)
      << " vs arena vm " << interp::to_text(arena);
  return reference;
}

/// Asserts the engines agree AND match an expected literal.
inline void expect_both(Session& session, const std::string& fn,
                        const interp::ValueList& args,
                        std::string_view expected) {
  interp::Value result = both(session, fn, args);
  EXPECT_EQ(result, val(expected)) << fn << " = " << interp::to_text(result);
}

}  // namespace proteus::testing
