// cfg.hpp — the instruction-level control-flow graph of a VCODE function
// and backward register liveness over it.
//
// Nodes are instructions. An instruction falls through to pc + 1 unless
// it is a kJump or a kRet; kJump, kJumpIfFalse and kBranchEmpty also
// have an edge to their target (Instr::aux). A fall-through past the end
// of the code is not an edge. The VCODE optimizer (vm/fuse.cpp) and the
// memory planner (analysis/lifetime.cpp) both run their dataflow over
// this one definition.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vm/bytecode.hpp"

namespace proteus::vm {

/// True when the opcode writes Instr::dst.
constexpr bool writes_dst(Op op) {
  switch (op) {
    case Op::kBranchEmpty:
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kRet:
      return false;
    default:
      return true;
  }
}

/// True for the opcodes whose Instr::aux is a branch target.
constexpr bool is_branch(Op op) {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kBranchEmpty;
}

/// Calls `f(succ)` for every CFG successor of the instruction `in` at
/// `pc`, in a function of `n` instructions.
template <typename F>
void for_each_succ(const Instr& in, std::size_t pc, std::size_t n, F&& f) {
  switch (in.op) {
    case Op::kRet:
      break;
    case Op::kJump:
      f(static_cast<std::size_t>(in.aux));
      break;
    case Op::kJumpIfFalse:
    case Op::kBranchEmpty:
      f(static_cast<std::size_t>(in.aux));
      if (pc + 1 < n) f(pc + 1);
      break;
    default:
      if (pc + 1 < n) f(pc + 1);
      break;
  }
}

/// Basic-block boundaries of a function of `n` instructions, where
/// `instr_at(pc)` is the instruction at pc: the blocks are
/// [starts[i], starts[i+1]), and the last entry is n.
template <typename InstrAt>
std::vector<std::size_t> block_starts(std::size_t n, InstrAt&& instr_at) {
  std::vector<std::uint8_t> leader(n + 1, 0);
  leader[0] = 1;
  leader[n] = 1;
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Instr& in = instr_at(pc);
    if (is_branch(in.op)) {
      leader[static_cast<std::size_t>(in.aux)] = 1;
      leader[pc + 1] = 1;
    } else if (in.op == Op::kRet) {
      leader[pc + 1] = 1;
    }
  }
  std::vector<std::size_t> starts;
  for (std::size_t pc = 0; pc <= n; ++pc) {
    if (leader[pc] != 0) starts.push_back(pc);
  }
  return starts;
}

/// Backward may-liveness of registers: r is live out of pc when some path
/// from a successor of pc reads r before writing it. One bit per
/// register, packed in 64-bit words; the fixpoint is found by backward
/// sweeps over the code.
class Liveness {
 public:
  /// `instr_at(pc)` is the instruction at pc; `args_at(pc)` its operand
  /// registers (any range of std::uint16_t). Every register is below
  /// `n_regs`.
  template <typename InstrAt, typename ArgsAt>
  Liveness(std::size_t n, std::size_t n_regs, InstrAt&& instr_at,
           ArgsAt&& args_at)
      : words_((n_regs + 63) / 64), out_(n * words_, 0) {
    std::vector<std::uint64_t> in(n * words_, 0);
    std::vector<std::uint64_t> row(words_, 0);
    // Without a backward edge one sweep reaches the fixpoint: every
    // successor's live-in is final before its predecessors are visited.
    bool forward_only = true;
    for (std::size_t pc = 0; pc < n && forward_only; ++pc) {
      for_each_succ(instr_at(pc), pc, n, [&](std::size_t succ) {
        forward_only = forward_only && succ > pc;
      });
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t pc = n; pc-- > 0;) {
        const Instr& ins = instr_at(pc);
        std::fill(row.begin(), row.end(), 0);
        for_each_succ(ins, pc, n, [&](std::size_t succ) {
          const std::uint64_t* s = &in[succ * words_];
          for (std::size_t w = 0; w < words_; ++w) row[w] |= s[w];
        });
        std::copy(row.begin(), row.end(), out_.begin() + offset(pc));
        // live-in = uses ∪ (live-out \ def)
        if (writes_dst(ins.op)) row[ins.dst / 64] &= ~bit(ins.dst);
        for (const std::uint16_t r : args_at(pc)) row[r / 64] |= bit(r);
        std::uint64_t* dst = &in[pc * words_];
        for (std::size_t w = 0; w < words_; ++w) {
          if (dst[w] != row[w]) {
            dst[w] = row[w];
            changed = true;
          }
        }
      }
      if (forward_only) break;
    }
  }

  [[nodiscard]] bool live_out(std::size_t pc, std::size_t r) const {
    return (out_[pc * words_ + r / 64] & bit(r)) != 0;
  }

 private:
  static constexpr std::uint64_t bit(std::size_t r) {
    return std::uint64_t{1} << (r % 64);
  }
  [[nodiscard]] std::ptrdiff_t offset(std::size_t pc) const {
    return static_cast<std::ptrdiff_t>(pc * words_);
  }

  std::size_t words_;
  std::vector<std::uint64_t> out_;
};

}  // namespace proteus::vm
