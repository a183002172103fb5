// ckptsim_perfbench: runs one perfbench workload (or all four) and prints
// its metrics, one per line with units, then a one-line JSON result.
//
//   ckptsim_perfbench --workload paper_figures|san_engine|service_mixed|variants|all
//                     [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Outcome;

struct WorkloadEntry {
  const char* name;
  Outcome (*run)(const perfbench::Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"paper_figures", perfbench::run_paper_figures},
    {"san_engine", perfbench::run_san_engine},
    {"service_mixed", perfbench::run_service_mixed},
    {"variants", perfbench::run_variants},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ckptsim_perfbench: %s\n"
               "usage: ckptsim_perfbench --workload "
               "paper_figures|san_engine|service_mixed|variants|all\n"
               "                         [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (!parse_number(value, &number) || number < 0.0) {
      return usage((flag + " expects a non-negative number").c_str());
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      opt.seconds = number;
    } else if (flag == "--trace") {
      opt.trace = number != 0.0;
    } else {
      return usage(("unknown option " + flag).c_str());
    }
  }

  std::vector<WorkloadEntry> selected;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) return usage(("unknown workload '" + workload + "'").c_str());

  Outcome total;
  std::string metrics_json;
  for (const WorkloadEntry& w : selected) {
    std::printf("== %s (seed %llu, %.0f s, trace %d)\n", w.name,
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::fflush(stdout);
    Outcome r;
    try {
      r = w.run(opt);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
      r.failed += 1;
      r.attempted += 1;
    }
    for (const auto& m : r.metrics) {
      std::printf("%-16s %-40s %.6g %s\n", w.name, m.name.c_str(), m.value, m.unit.c_str());
      const std::string key = selected.size() == 1 ? m.name : std::string(w.name) + "." + m.name;
      if (!metrics_json.empty()) metrics_json += ", ";
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      metrics_json.append("\"").append(json_escape(key)).append("\": {\"value\": ").append(value);
      metrics_json.append(", \"unit\": \"").append(json_escape(m.unit)).append("\"}");
    }
    std::printf("%-16s %-40s %.6g ratio (%llu of %llu operations)\n", w.name, "failed_ratio",
                r.attempted == 0 ? 0.0
                                 : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto& p : r.problems) std::printf("%-16s CHECK FAILED: %s\n", w.name, p.c_str());
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
  }
  if (total.attempted == 0) total.attempted = 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              total.correct ? "true" : "false", static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), metrics_json.c_str());
  return total.correct ? 0 : 1;
}
