// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <paper_apps|compose_small|serve_mixed> --seed <n>
//             --seconds <s> [--trace 0|1] [--setup-only] [--trace-out <file>]
//
// Prints every metric by name and unit, then, as its last line, one JSON
// record: the metrics, the op accounting, and the host stamp. Exits 1 if
// any operation was wrong or threw (run.py turns the records of a run into
// the benchmark's result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_apps|compose_small|serve_mixed> "
               "--seed <n> --seconds <s> [--trace 0|1] [--setup-only] "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-out" && has_value) {
      args.trace_path = argv[++i];
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();

  Report r;
  try {
    if (workload == "paper_apps") {
      r = run_paper_apps(args);
    } else if (workload == "compose_small") {
      r = run_compose_small(args);
    } else if (workload == "serve_mixed") {
      r = run_serve_mixed(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }

  const auto host = host_stamp();
  std::printf("workload %s  seed %llu  trace %d%s\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.setup_only ? "  (set-up only)" : "");
  for (const auto& [k, v] : host) std::printf("  host.%-22s %s\n", k.c_str(), v.c_str());
  std::printf("  %-34s %.6g s\n", "setup_s", r.setup_s);
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %llu\n  %-34s %llu\n", "ops", static_cast<unsigned long long>(r.ops),
              "ops_failed", static_cast<unsigned long long>(r.ops_failed));

  std::string rec = "{\"workload\":" + json_string(workload);
  rec += ",\"seed\":" + std::to_string(args.seed);
  rec += std::string(",\"trace\":") + (args.trace ? "1" : "0");
  rec += std::string(",\"setup_only\":") + (args.setup_only ? "true" : "false");
  rec += ",\"setup_s\":" + json_number(r.setup_s);
  rec += ",\"ops\":" + std::to_string(r.ops);
  rec += ",\"ops_failed\":" + std::to_string(r.ops_failed);
  const auto object = [&rec](const char* key, const auto& entries, auto&& value_of) {
    rec += std::string(",\"") + key + "\":{";
    bool first = true;
    for (const auto& e : entries) {
      if (!first) rec += ',';
      first = false;
      value_of(e);
    }
    rec += '}';
  };
  object("metrics", r.metrics, [&rec](const Metric& m) {
    rec += json_string(m.name);
    rec += ":{\"value\":" + json_number(m.value);
    rec += ",\"unit\":" + json_string(m.unit);
    rec += '}';
  });
  const auto pair = [&rec](const std::pair<std::string, std::string>& kv) {
    rec += json_string(kv.first);
    rec += ':';
    rec += json_string(kv.second);
  };
  object("host", host, pair);
  object("notes", r.notes, pair);
  rec += '}';
  std::printf("%s\n", rec.c_str());
  return r.ops_failed == 0 ? 0 : 1;
}
