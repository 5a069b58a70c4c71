// perfbench/src/host.hpp — the host and provenance stamp every record
// carries, so that figures from different machines or builds are never
// compared by accident.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// nproc, CPU model, L2/L3 sizes, compiler and version, build type and
/// flags, PPA_NATIVE_ARCH — as key/value strings. run.py adds the git
/// commit, read when the run starts.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_stamp();

}  // namespace perfbench
