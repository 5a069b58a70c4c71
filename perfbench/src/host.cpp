#include "host.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

/// Size string of the unified/data cache at `level` for cpu0 ("" if absent).
std::string cache_size(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    if (read_line(dir + "level") != std::to_string(level)) continue;
    if (read_line(dir + "type") == "Instruction") continue;
    return read_line(dir + "size");
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_stamp() {
  std::ostringstream nproc;
  nproc << sysconf(_SC_NPROCESSORS_ONLN);
  return {
      {"nproc", nproc.str()},
      {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"l2", cache_size(2)},
      {"l3", cache_size(3)},
      {"compiler", compiler()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"PPA_NATIVE_ARCH", PERFBENCH_NATIVE_ARCH},
  };
}

}  // namespace perfbench
