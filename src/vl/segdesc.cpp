#include "vl/segdesc.hpp"

#include "vl/kernel.hpp"
#include "vl/scan.hpp"

namespace proteus::vl {

IntVec lengths_to_offsets(const IntVec& lengths) {
  return scan_add(lengths);
}

Size lengths_total(const IntVec& lengths) {
  // The sign check rides along in the reduction: the OR of all lengths is
  // negative iff one is, and nothing throws inside a parallel region.
  struct SumOr {
    Size sum;
    Int bits;
  };
  const Int* p = lengths.data();
  const SumOr total = detail::parallel_reduce(
      lengths.size(), SumOr{0, 0},
      [&](Size i) { return SumOr{Size(p[i]), p[i]}; },
      [](SumOr a, SumOr b) { return SumOr{a.sum + b.sum, a.bits | b.bits}; });
  PROTEUS_REQUIRE(VectorError, total.bits >= 0,
                  "descriptor contains a negative length");
  stats().record(lengths.size());
  stats().record_segments(lengths.size());
  return total.sum;
}

IntVec offsets_to_lengths(const IntVec& offsets, Size total) {
  const Size n = offsets.size();
  IntVec lengths(n);
  const Int* op = offsets.data();
  Int* lp = lengths.data();
  const Size bad = detail::parallel_first_failure(n, [&](Size i) {
    const Int next = (i + 1 < n) ? op[i + 1] : total;
    lp[i] = next - op[i];
    return next >= op[i] ? detail::kNoFailure : i;
  });
  PROTEUS_REQUIRE(VectorError, bad == detail::kNoFailure,
                  "offsets are not non-decreasing");
  stats().record(n);
  return lengths;
}

BoolVec lengths_to_flags(const IntVec& lengths, Size total) {
  require_descriptor(lengths, total, "lengths_to_flags");
  BoolVec flags(total, Bool{0});
  IntVec offsets = lengths_to_offsets(lengths);
  const Int* op = offsets.data();
  const Int* lp = lengths.data();
  Bool* fp = flags.data();
  const Size bad = detail::parallel_first_failure(lengths.size(), [&](Size s) {
    if (lp[s] <= 0) return s;
    fp[op[s]] = 1;
    return detail::kNoFailure;
  });
  PROTEUS_REQUIRE(VectorError, bad == detail::kNoFailure,
                  "zero-length segment has no head-flag encoding");
  stats().record(lengths.size());
  stats().record_segments(lengths.size());
  return flags;
}

IntVec flags_to_lengths(const BoolVec& flags) {
  const Size n = flags.size();
  if (n == 0) return IntVec{};
  PROTEUS_REQUIRE(VectorError, flags[0] != 0,
                  "first element must start a segment");
  IntVec lengths;
  Int run = 0;
  for (Size i = 0; i < n; ++i) {  // serial: output size is data dependent
    if (flags.data()[i] != 0 && run > 0) {
      lengths.push_back(run);
      run = 0;
    }
    ++run;
  }
  lengths.push_back(run);
  stats().record(n);
  return lengths;
}

IntVec segment_ids(const IntVec& lengths) {
  const Size total = lengths_total(lengths);
  IntVec ids(total);
  IntVec offsets = lengths_to_offsets(lengths);
  const Int* op = offsets.data();
  const Int* lp = lengths.data();
  Int* ip = ids.data();
  detail::parallel_for(lengths.size(), [&](Size s) {
    for (Int k = 0; k < lp[s]; ++k) ip[op[s] + k] = s;
  });
  stats().record(total);
  stats().record_segments(lengths.size());
  return ids;
}

IntVec segment_ranks(const IntVec& lengths) {
  const Size total = lengths_total(lengths);
  IntVec ranks(total);
  IntVec offsets = lengths_to_offsets(lengths);
  const Int* op = offsets.data();
  const Int* lp = lengths.data();
  Int* rp = ranks.data();
  detail::parallel_for(lengths.size(), [&](Size s) {
    for (Int k = 0; k < lp[s]; ++k) rp[op[s] + k] = k + 1;
  });
  stats().record(total);
  stats().record_segments(lengths.size());
  return ranks;
}

void require_descriptor(const IntVec& lengths, Size total, const char* op) {
  PROTEUS_REQUIRE(VectorError, lengths_total(lengths) == total,
                  std::string(op) + ": descriptor does not cover the vector");
}

}  // namespace proteus::vl
