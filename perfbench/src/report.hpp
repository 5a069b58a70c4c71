// perfbench/src/report.hpp — what one run hands back: named metrics with
// units, the op accounting, and free-form notes for the record.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;            ///< in the order they were set
  std::uint64_t ops = 0;                  ///< operations attempted
  std::uint64_t ops_failed = 0;           ///< wrong or throwing operations
  double setup_s = 0.0;
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  /// Record a timing summary as <name>_p50 / <name>_p<q> / <name>_n.
  void set_summary(const std::string& name, const Summary& s, const std::string& unit) {
    set(name + "_p50", s.median, unit);
    char q[32];
    std::snprintf(q, sizeof(q), "%g", s.tail_q);
    if (s.tail_q > 50.0) set(name + "_p" + q, s.tail, unit);
    set(name + "_n", static_cast<double>(s.n), "count");
  }
  [[nodiscard]] double get(const std::string& name, double fallback = 0.0) const {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return fallback;
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// What every workload receives from the command line.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_path;  ///< Chrome trace output (traced runs)
};

}  // namespace perfbench
