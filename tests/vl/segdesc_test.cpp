// Unit tests for segment-descriptor encodings and their conversions.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "vl/vl.hpp"

namespace proteus::vl {
namespace {

/// The message `f` throws under `backend`, or "" when it does not throw.
template <typename F>
std::string failure_on(Backend backend, F&& f) {
  BackendGuard guard(backend);
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(SegDesc, LengthsToOffsets) {
  EXPECT_EQ(lengths_to_offsets(IntVec{2, 0, 3}), (IntVec{0, 2, 2}));
  EXPECT_EQ(lengths_to_offsets(IntVec{}), IntVec{});
}

TEST(SegDesc, LengthsTotal) {
  EXPECT_EQ(lengths_total(IntVec{2, 0, 3}), 5);
  EXPECT_EQ(lengths_total(IntVec{}), 0);
  EXPECT_THROW((void)lengths_total(IntVec{1, -1}), VectorError);
}

TEST(SegDesc, OffsetsToLengthsRoundTrip) {
  IntVec lens{4, 0, 1, 7, 0};
  EXPECT_EQ(offsets_to_lengths(lengths_to_offsets(lens), lengths_total(lens)),
            lens);
}

TEST(SegDesc, OffsetsNotMonotoneThrows) {
  EXPECT_THROW((void)offsets_to_lengths(IntVec{0, 5, 3}, 10), VectorError);
}

TEST(SegDesc, LengthsToFlags) {
  EXPECT_EQ(lengths_to_flags(IntVec{2, 3}, 5), (BoolVec{1, 0, 1, 0, 0}));
}

TEST(SegDesc, ZeroLengthSegmentHasNoFlagEncoding) {
  // This is exactly why the representation of the paper stores lengths.
  EXPECT_THROW((void)lengths_to_flags(IntVec{2, 0, 1}, 3), VectorError);
}

TEST(SegDesc, FlagsToLengths) {
  EXPECT_EQ(flags_to_lengths(BoolVec{1, 0, 1, 0, 0}), (IntVec{2, 3}));
  EXPECT_EQ(flags_to_lengths(BoolVec{}), IntVec{});
  EXPECT_THROW((void)flags_to_lengths(BoolVec{0, 1}), VectorError);
}

TEST(SegDesc, FlagsRoundTrip) {
  IntVec lens{1, 4, 2, 1};
  EXPECT_EQ(flags_to_lengths(lengths_to_flags(lens, 8)), lens);
}

TEST(SegDesc, SegmentIds) {
  EXPECT_EQ(segment_ids(IntVec{2, 0, 3}), (IntVec{0, 0, 2, 2, 2}));
  EXPECT_EQ(segment_ids(IntVec{}), IntVec{});
}

TEST(SegDesc, SegmentRanks) {
  EXPECT_EQ(segment_ranks(IntVec{2, 0, 3}), (IntVec{1, 2, 1, 2, 3}));
}

TEST(SegDesc, ChecksRaiseTheSerialErrorUnderOpenMP) {
  // Descriptors long enough to thread: the checks must report after the
  // parallel loop (an exception inside an OpenMP region terminates the
  // process), with the serial backend's message.
  constexpr Size n = 3 * kParallelGrain;
  IntVec negative(n, Int{1});
  negative[n - 7] = -1;
  IntVec unsorted = lengths_to_offsets(IntVec(n, Int{1}));
  unsorted[n / 2] = 0;
  IntVec empty_segment(n, Int{1});
  empty_segment[n / 3] = 0;
  const auto checks = {
      std::function<void()>([&] { (void)lengths_total(negative); }),
      std::function<void()>([&] { (void)offsets_to_lengths(unsorted, n); }),
      std::function<void()>(
          [&] { (void)lengths_to_flags(empty_segment, n - 1); }),
  };
  for (const auto& check : checks) {
    const std::string serial = failure_on(Backend::kSerial, check);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(failure_on(Backend::kOpenMP, check), serial);
  }
}

TEST(SegDesc, RequireDescriptor) {
  EXPECT_NO_THROW(require_descriptor(IntVec{1, 2}, 3, "test"));
  EXPECT_THROW((void)require_descriptor(IntVec{1, 2}, 4, "test"), VectorError);
}

}  // namespace
}  // namespace proteus::vl
