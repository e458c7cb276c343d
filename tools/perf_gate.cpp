// perf_gate — the CI regression gate over hydra-bench-v1 documents.
//
//   perf_gate --current PATH --baseline PATH [--budget FRAC] [--inflate F]
//
// Options take `--key value` or `--key=value`, like hydra's; an unknown key
// or a value that is not a number is a usage error (exit 2).
//
// Exit 0 when every baseline metric is present in --current and within
// budget (current <= baseline * (1 + budget); all units are
// lower-is-better), 1 on any regression or missing metric, 2 on unreadable
// inputs. --budget defaults to 0.10.
//
// --inflate F multiplies every current value by F before comparing. CI runs
// the gate twice: once for real, and once with --inflate 1.25 against the
// SAME file — which must exit 1, proving the gate actually trips on a >10%
// regression (a gate that cannot fail is worse than no gate).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/perf.hpp"
#include "options.hpp"

using namespace hydra::harness;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perf_gate --current PATH --baseline PATH"
               " [--budget FRAC] [--inflate F]\n",
               error.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string current_path;
  std::string baseline_path;
  double budget = 0.10;
  double inflate = 1.0;
  for (const auto& [key, value] : hydra::options::parse_kv(argc, argv, 1, &usage)) {
    if (key == "current") {
      current_path = value;
    } else if (key == "baseline") {
      baseline_path = value;
    } else if (key == "budget") {
      budget = hydra::options::number<double>(key, value, &usage);
    } else if (key == "inflate") {
      inflate = hydra::options::number<double>(key, value, &usage);
    } else {
      usage("unknown option --" + key);
    }
  }
  if (current_path.empty() || baseline_path.empty()) {
    usage("--current and --baseline are required");
  }

  auto current = load_bench_json(current_path);
  const auto baseline = load_bench_json(baseline_path);
  if (!current || !baseline) {
    std::fprintf(stderr, "error: inputs must be hydra-bench-v1 documents\n");
    return 2;
  }
  if (inflate != 1.0) {
    for (auto& m : current->metrics) m.value *= inflate;
    std::printf("(self-test: current values inflated by %.2fx)\n", inflate);
  }

  std::vector<std::string> regressions;
  std::printf("perf gate: %s vs %s (budget %+.0f%%)\n", current_path.c_str(),
              baseline_path.c_str(), 100.0 * budget);
  std::fputs(
      render_delta_table(current->metrics, baseline->metrics, budget, &regressions)
          .c_str(),
      stdout);
  if (!regressions.empty()) {
    std::printf("\nFAIL:");
    for (const auto& name : regressions) std::printf(" %s", name.c_str());
    std::printf("\n");
    return 1;
  }
  std::printf("\nOK: all metrics within budget\n");
  return 0;
}
