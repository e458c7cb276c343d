// T8 — Aggregation-rule ablation (DESIGN.md decision follow-up).
//
// The paper adopts the diameter-midpoint rule of [Függer-Nowak 18], which
// carries the proven sqrt(7/8) per-iteration contraction. A natural
// alternative is the centroid of the safe area's extreme points. This
// ablation measures, over the same adversarial view pairs as T2a:
//   * the worst and mean contraction ratio of both rules, and
//   * whether end-to-end runs still reach eps-agreement with the centroid
//     rule (they do — the halting estimate is computed from the SAME
//     sqrt(7/8) formula, so if the centroid contracted slower than the
//     bound it would surface as agreement failures).
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "protocols/aa_iteration.hpp"
#include "protocols/codec.hpp"

using namespace hydra;
using namespace hydra::harness;
using protocols::Aggregation;
using protocols::PairList;

namespace {

struct Stats {
  double worst = 0.0;
  double mean = 0.0;
};

Stats measure_rule(Aggregation aggregation, std::size_t dim, std::size_t n,
                   std::size_t ts, std::size_t ta, std::uint64_t seed, int trials) {
  Rng rng(seed);
  const double scale = 10.0;
  double worst = 0.0;
  double sum = 0.0;
  int counted = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<geo::Vec> honest;
    for (std::size_t i = ts; i < n; ++i) {
      geo::Vec v(dim, 0.0);
      for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-scale, scale);
      honest.push_back(std::move(v));
    }
    std::vector<geo::Vec> values(n, geo::Vec(dim, 0.0));
    for (std::size_t i = 0; i < ts; ++i) {
      geo::Vec v(dim, 0.0);
      for (std::size_t d = 0; d < dim; ++d) {
        v[d] = (rng.next_below(2) != 0u ? 1.0 : -1.0) * scale * 100.0;
      }
      values[i] = v;
    }
    for (std::size_t i = ts; i < n; ++i) values[i] = honest[i - ts];

    const auto view = [&](std::uint64_t mask) {
      PairList m;
      for (std::size_t i = 0; i < n; ++i) {
        if (i >= ts || ((mask >> i) & 1u) != 0) {
          m.emplace_back(static_cast<PartyId>(i), values[i]);
        }
      }
      return m;
    };
    protocols::Params p;
    p.n = n;
    p.ts = ts;
    p.ta = ta;
    p.dim = dim;
    p.aggregation = aggregation;
    const auto m1 = view(rng.next_u64());
    const auto m2 = view(rng.next_u64());
    const double hd = geo::diameter(honest);
    if (hd < 1e-12) continue;
    const double ratio =
        geo::distance(protocols::compute_new_value(p, m1),
                      protocols::compute_new_value(p, m2)) /
        hd;
    worst = std::max(worst, ratio);
    sum += ratio;
    ++counted;
  }
  return {worst, counted > 0 ? sum / counted : 0.0};
}

}  // namespace

int main() {
  const double bound = std::sqrt(7.0 / 8.0);
  std::printf("== T8: aggregation-rule ablation — diameter midpoint (paper) vs "
              "extreme-point centroid ==\n\n");

  Table table({"D", "n", "ts", "ta", "rule", "worst ratio", "mean ratio",
               "proven bound?"});
  struct Case {
    std::size_t dim, n, ts, ta;
  };
  const std::vector<Case> cases{
      {1, 5, 1, 1}, {2, 5, 1, 1}, {2, 8, 2, 1}, {3, 6, 1, 1},
  };
  for (const auto& c : cases) {
    const int trials = c.dim >= 3 ? 60 : 250;
    for (const auto agg : {Aggregation::kDiameterMidpoint, Aggregation::kCentroid}) {
      const auto stats =
          measure_rule(agg, c.dim, c.n, c.ts, c.ta, 31 * c.n + c.dim, trials);
      table.row({fmt(std::uint64_t{c.dim}), fmt(std::uint64_t{c.n}),
                 fmt(std::uint64_t{c.ts}), fmt(std::uint64_t{c.ta}),
                 name_of(protocols::kAggregationNames, agg), fmt(stats.worst),
                 fmt(stats.mean),
                 agg == Aggregation::kCentroid ? "no (measured only)"
                                               : "yes, sqrt(7/8)"});
    }
  }
  table.print();
  std::printf("(bound for the midpoint rule: %.4f)\n\n", bound);

  std::printf("End-to-end check: full runs with each rule (async, hostile "
              "mix) —\n");
  Table runs({"rule", "live", "valid", "agree", "out-diam"});
  for (const auto agg : {Aggregation::kDiameterMidpoint, Aggregation::kCentroid}) {
    RunSpec spec;
    spec.params.n = 8;
    spec.params.ts = 2;
    spec.params.ta = 1;
    spec.params.dim = 2;
    spec.params.eps = 1e-2;
    spec.params.delta = 1000;
    spec.params.aggregation = agg;
    spec.workload = Workload::kGaussian;
    spec.workload_scale = 20.0;
    spec.network = Network::kAsyncReorder;
    spec.adversary = Adversary::kMixed;
    spec.corruptions = 1;
    spec.seed = 93;
    const auto result = execute(spec);
    runs.row({name_of(protocols::kAggregationNames, agg), fmt_ok(result.verdict.live),
              fmt_ok(result.verdict.valid), fmt_ok(result.verdict.agreed),
              fmt(result.verdict.output_diameter)});
  }
  runs.print();
  std::printf("\nTakeaway: the centroid often contracts faster on average but "
              "lacks a worst-case guarantee; the paper's midpoint rule is the "
              "safe default.\n");
  return 0;
}
