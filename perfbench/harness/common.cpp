#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <thread>

#include "vl/backend.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (failed <= 5) note("MISMATCH " + what);
}

std::int32_t Trace::open(const char* name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Trace::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Trace::total_us(const std::string& name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e3;
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number_text(static_cast<double>(s.start_ns - epoch) / 1e3)
        << ",\"dur\":"
        << number_text(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::string host_fingerprint() {
  std::ostringstream os;
  os << "{\"cores\":" << std::thread::hardware_concurrency() << ",\"caches\":{";
  bool first = true;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_first_line(dir + "size");
    if (size.empty()) continue;
    std::string type = read_first_line(dir + "type");
    const std::string level = read_first_line(dir + "level");
    const char suffix = type == "Data" ? 'd' : type == "Instruction" ? 'i' : ' ';
    std::string key = "L" + level;
    if (suffix != ' ') key += suffix;
    os << (first ? "" : ",") << "\"" << key << "\":\"" << size << "\"";
    first = false;
  }
  os << "},\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
#if defined(__clang__)
     << "clang "
#elif defined(__GNUC__)
     << "g++ "
#endif
     << __VERSION__ << "\",\"vl_backend\":\""
     << (proteus::vl::backend() == proteus::vl::Backend::kSerial ? "serial"
                                                                 : "openmp")
     << "\",\"threads\":"
     << (proteus::vl::backend() == proteus::vl::Backend::kSerial
             ? 1
             : proteus::vl::backend_threads())
     << "}";
  return os.str();
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::string number_text(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace perfbench
