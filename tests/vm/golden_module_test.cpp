// golden_module_test.cpp — the compiled image of every example program is
// pinned: the FNV-1a hash and size of vm::module_bytes (memory plan
// included) for the -O1 module and the -O0 module, plus the hash of the
// M3xx report. A front-end or planner change that claims to leave the
// output alone must leave this table alone; one that changes the output
// on purpose regenerates the table (the failure message prints the new
// row) and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/proteus.hpp"
#include "vm/module_io.hpp"

namespace proteus::vm {
namespace {

struct Golden {
  const char* program;  // file under examples/programs/
  std::size_t o1_size;
  std::uint64_t o1_hash;
  std::size_t o0_size;
  std::uint64_t o0_hash;
  std::uint64_t report_hash;  // memory_report.to_text()
};

constexpr Golden kGolden[] = {
    {"graph.p", 3765, 0x118a55619bd26babull, 3764, 0x6d68c5c9de3918a4ull,
     0xc2d0692b232449acull},
    {"mandel.p", 7124, 0xef9343f0faa8d555ull, 7185, 0x4c7f3c0db3782fedull,
     0x5571fb22c8df88b3ull},
    {"nbody.p", 7140, 0xb8501a0747145f6bull, 7183, 0xf06df129f5f050cfull,
     0xcbf29ce484222325ull},
    {"primes.p", 2639, 0x3cae6f3ce0cfc38cull, 2625, 0x4d34c81c323515eull,
     0xcbf29ce484222325ull},
    {"sort.p", 4216, 0xdff325f29b36c831ull, 4209, 0xc03ef47d41d5560full,
     0x32293c9832d421adull},
    {"stats.p", 3149, 0xd5c5c083a16a52a6ull, 3147, 0x37461fbae36215e0ull,
     0xcbf29ce484222325ull},
};

// gtest's default printer dumps the struct's bytes, `program` pointer
// included, which would put a load address into every ctest name.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.program; }

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string read_program(const std::string& name) {
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/examples/programs/" +
                   name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GoldenModule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenModule, ImageBytesMatchTheTable) {
  const Golden& g = GetParam();
  const xform::Compiled c = xform::compile(read_program(g.program));
  const std::string o1 = module_bytes(*c.module);
  const std::string o0 = module_bytes(*c.module_o0);
  const std::uint64_t report = fnv1a(c.memory_report.to_text());
  std::ostringstream row;
  row << std::hex << "{\"" << g.program << "\", " << std::dec << o1.size()
      << ", 0x" << std::hex << fnv1a(o1) << "ull, " << std::dec << o0.size()
      << ", 0x" << std::hex << fnv1a(o0) << "ull, 0x" << report << "ull},";
  EXPECT_EQ(o1.size(), g.o1_size) << row.str();
  EXPECT_EQ(fnv1a(o1), g.o1_hash) << row.str();
  EXPECT_EQ(o0.size(), g.o0_size) << row.str();
  EXPECT_EQ(fnv1a(o0), g.o0_hash) << row.str();
  EXPECT_EQ(report, g.report_hash) << row.str();
}

INSTANTIATE_TEST_SUITE_P(
    Examples, GoldenModule, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& pinfo) {
      std::string name = pinfo.param.program;
      return name.substr(0, name.find('.'));
    });

}  // namespace
}  // namespace proteus::vm
