#include "harness/perf.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/polygon.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/vec.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/json.hpp"

// Build provenance for the bench JSON context block; the harness CMakeLists
// injects the real values, and the fallbacks keep out-of-tree builds
// compiling.
#ifndef HYDRA_GIT_DESCRIBE
#define HYDRA_GIT_DESCRIBE "unknown"
#endif
#ifndef HYDRA_BUILD_TYPE
#define HYDRA_BUILD_TYPE "unknown"
#endif

namespace hydra::harness {

namespace {

constexpr std::string_view kBenchSchema = "hydra-bench-v1";
constexpr std::string_view kPerfSchema = "hydra-perf-v1";

}  // namespace

// ---------------------------------------------------------------------------
// hydra-bench-v1 writer

std::string bench_json(std::string_view bench_name,
                       std::span<const BenchMetric> metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kBenchSchema);
  w.kv("bench", bench_name);
  w.key("context");
  w.begin_object();
  w.kv("git", HYDRA_GIT_DESCRIBE);
  w.kv("build", HYDRA_BUILD_TYPE);
  w.end_object();
  w.key("metrics");
  w.begin_array();
  for (const auto& m : metrics) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("unit", m.unit);
    w.kv("value", m.value);
    w.kv("repetitions", m.repetitions);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.take();
  out.push_back('\n');
  return out;
}

bool write_bench_json(const std::string& path, std::string_view bench_name,
                      std::span<const BenchMetric> metrics) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    HYDRA_LOG_ERROR("perf: cannot open %s for writing", path.c_str());
    return false;
  }
  out << bench_json(bench_name, metrics);
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Readers. Both documents go through obs::parse_json, so a malformed or
// truncated file is rejected whole rather than half-read.

std::optional<BenchDoc> parse_bench_json(std::string_view doc) {
  const auto root = obs::parse_json(doc);
  if (!root || (*root)["schema"].text() != kBenchSchema) return std::nullopt;
  const obs::JsonValue* metrics = root->find("metrics");
  if (metrics == nullptr || metrics->kind() != obs::JsonValue::Kind::kArray) {
    return std::nullopt;
  }
  BenchDoc out;
  out.bench = (*root)["bench"].text();
  for (const auto& item : metrics->items()) {
    BenchMetric m;
    m.name = item["name"].text();
    m.unit = item["unit"].text();
    m.value = item["value"].as_double();
    m.repetitions = item["repetitions"].as_u64();
    if (m.name.empty()) return std::nullopt;
    out.metrics.push_back(std::move(m));
  }
  return out;
}

std::optional<BenchDoc> load_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    HYDRA_LOG_ERROR("perf: cannot read %s", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_bench_json(buf.str());
}

std::optional<std::vector<PhaseRow>> parse_perf_json(std::string_view doc) {
  const auto root = obs::parse_json(doc);
  if (!root || (*root)["schema"].text() != kPerfSchema) return std::nullopt;
  const obs::JsonValue* phases = root->find("phases");
  if (phases == nullptr || !phases->is_object()) return std::nullopt;

  std::vector<PhaseRow> rows;
  rows.reserve(phases->items().size());
  for (std::size_t i = 0; i < phases->items().size(); ++i) {
    const obs::JsonValue& body = phases->items()[i];
    // count/total_ns/self_ns are required; the rest default to 0 / empty.
    const auto required = [&body](std::string_view key) {
      const obs::JsonValue* v = body.find(key);
      return v != nullptr && v->kind() == obs::JsonValue::Kind::kNumber;
    };
    if (!required("count") || !required("total_ns") || !required("self_ns")) {
      return std::nullopt;
    }
    PhaseRow row;
    row.name = phases->keys()[i];
    row.count = body["count"].as_u64();
    row.total_ns = body["total_ns"].as_u64();
    row.self_ns = body["self_ns"].as_u64();
    row.min_ns = body["min_ns"].as_u64();
    row.max_ns = body["max_ns"].as_u64();
    row.buckets = body["buckets"].u64s();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::optional<std::vector<PhaseRow>> load_perf_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    HYDRA_LOG_ERROR("perf: cannot read %s", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_perf_json(buf.str());
}

// ---------------------------------------------------------------------------
// Phase report

namespace {

/// Representative latency of log2 bucket i (covering [2^(i-1), 2^i) ns for
/// i >= 1): the geometric midpoint, the unbiased pick under the bucket's
/// exponential spacing.
double bucket_mid_ns(std::size_t i) {
  if (i == 0) return 0.5;
  return std::ldexp(std::sqrt(2.0), static_cast<int>(i) - 1);
}

/// Nearest-rank percentile over the bucket counts (the same convention
/// harness::Stats::percentile uses on raw samples), resolved to the bucket
/// midpoint. 0 for an empty histogram.
double bucket_percentile(const std::vector<std::uint64_t>& buckets, double p) {
  std::uint64_t total = 0;
  for (const auto b : buckets) total += b;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return bucket_mid_ns(i);
  }
  return bucket_mid_ns(buckets.size() - 1);
}

std::string fmt_us(double ns) { return fmt(ns / 1e3); }
std::string fmt_ms(double ns) { return fmt(ns / 1e6); }

}  // namespace

std::string render_phase_report(std::vector<PhaseRow> rows, std::size_t top_k) {
  std::sort(rows.begin(), rows.end(), [](const PhaseRow& a, const PhaseRow& b) {
    return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
  });
  double self_sum = 0.0;
  for (const auto& r : rows) self_sum += static_cast<double>(r.self_ns);

  Table table({"phase", "count", "total_ms", "self_ms", "self%", "avg_us",
               "~p50_us", "~p95_us", "max_us"});
  std::size_t shown = 0;
  for (const auto& r : rows) {
    if (top_k != 0 && shown == top_k) break;
    ++shown;
    const auto count = static_cast<double>(r.count);
    const auto total = static_cast<double>(r.total_ns);
    const auto self = static_cast<double>(r.self_ns);
    table.row({r.name, fmt(r.count), fmt_ms(total), fmt_ms(self),
               fmt(self_sum > 0.0 ? 100.0 * self / self_sum : 0.0),
               fmt_us(r.count > 0 ? total / count : 0.0),
               fmt_us(bucket_percentile(r.buckets, 50.0)),
               fmt_us(bucket_percentile(r.buckets, 95.0)),
               fmt_us(static_cast<double>(r.max_ns))});
  }
  std::ostringstream out;
  out << table.render();
  if (top_k != 0 && rows.size() > shown) {
    out << "(" << rows.size() - shown << " more phases below the top " << shown
        << "; self% is the share of the summed self time; p50/p95 are "
           "approximate, from log2 buckets)\n";
  } else {
    out << "(self% is the share of the summed self time; p50/p95 are "
           "approximate, from log2 buckets)\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Delta table

std::string render_delta_table(std::span<const BenchMetric> current,
                               std::span<const BenchMetric> baseline,
                               double budget,
                               std::vector<std::string>* regressions) {
  Table table({"metric", "unit", "baseline", "current", "delta", "ok"});
  for (const auto& base : baseline) {
    const auto it = std::find_if(
        current.begin(), current.end(),
        [&](const BenchMetric& m) { return m.name == base.name; });
    if (it == current.end()) {
      // A kernel silently dropped from the bench must not slide past the
      // gate looking like a pass.
      table.row({base.name, base.unit, fmt(base.value), "-", "missing",
                 fmt_ok(false)});
      if (regressions != nullptr) regressions->push_back(base.name + " (missing)");
      continue;
    }
    const double delta =
        base.value > 0.0 ? (it->value - base.value) / base.value : 0.0;
    const bool ok = delta <= budget;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * delta);
    table.row({base.name, base.unit, fmt(base.value), fmt(it->value), buf,
               fmt_ok(ok)});
    if (!ok && regressions != nullptr) regressions->push_back(base.name);
  }
  for (const auto& m : current) {
    const bool known = std::any_of(
        baseline.begin(), baseline.end(),
        [&](const BenchMetric& b) { return b.name == m.name; });
    if (!known) {
      table.row({m.name, m.unit, "-", fmt(m.value), "new", fmt_ok(true)});
    }
  }
  return table.render();
}

// ---------------------------------------------------------------------------
// Kernel measurement

TimedRate time_rate(const std::function<void()>& fn, double min_sample_s,
                    int samples) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_s = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  // Calibrate: double the inner repetition count until one sample is well
  // past min_sample_s (2x margin: a count that lands exactly on the
  // threshold flips between runs, changing what is measured).
  std::uint64_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < reps; ++i) fn();
    const double s = elapsed_s(t0, Clock::now());
    if (s >= 2.0 * min_sample_s || reps >= (1ULL << 30)) break;
    reps *= 2;
  }
  Stats per_rep;
  for (int i = 0; i < samples; ++i) {
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) fn();
    per_rep.add(elapsed_s(t0, Clock::now()) / static_cast<double>(reps));
  }
  // Min, not mean or median: scheduler preemption and frequency dips only
  // ever INFLATE a sample, so the minimum is the most repeatable estimate of
  // the code's cost — what a 10%-budget regression gate needs.
  return TimedRate{.seconds_per_rep = per_rep.summary().min,
                   .repetitions = reps * static_cast<std::uint64_t>(samples)};
}

namespace {

std::vector<geo::Vec> random_points(Rng& rng, std::size_t n, std::size_t dim,
                                    double radius) {
  std::vector<geo::Vec> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    geo::Vec v(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = rng.next_double(-radius, radius);
    }
    pts.push_back(std::move(v));
  }
  return pts;
}

BenchMetric per_point_metric(std::string name, const TimedRate& rate,
                             std::size_t points) {
  return BenchMetric{.name = std::move(name),
                     .unit = "ns/point",
                     .value = rate.seconds_per_rep * 1e9 /
                              static_cast<double>(points),
                     .repetitions = rate.repetitions};
}

}  // namespace

std::vector<BenchMetric> measure_geometry_kernels() {
  // One fixed seed: the inputs (not the timings) are identical run to run
  // and across machines, so baseline deltas measure the code, not the data.
  Rng rng(0x9e04'5afe'a4ea'0001ULL);

  struct Kernel {
    const char* name;
    std::size_t points;
    std::function<void()> fn;
  };
  std::vector<Kernel> kernels;

  // 2D convex hull (Andrew's monotone chain) over 64 points.
  const auto hull_pts = random_points(rng, 64, 2, 10.0);
  kernels.push_back({"geo.hull2d", hull_pts.size(), [&hull_pts] {
    const auto hull = geo::ConvexPolygon2D::hull_of(hull_pts);
    if (hull.empty()) std::abort();  // keeps the call observable
  }});

  // Polygon intersection (Sutherland-Hodgman clipping), two 16-gons.
  const auto clip_a = geo::ConvexPolygon2D::hull_of(random_points(rng, 16, 2, 10.0));
  auto shifted = random_points(rng, 16, 2, 10.0);
  for (auto& p : shifted) p[0] += 3.0;
  const auto clip_b = geo::ConvexPolygon2D::hull_of(shifted);
  kernels.push_back({"geo.clip",
                     clip_a.vertices().size() + clip_b.vertices().size(),
                     [&clip_a, &clip_b] {
    const auto isect = clip_a.intersect(clip_b);
    if (isect.vertices().size() > 64) std::abort();
  }});

  // Half-space membership: one polygon, a batch of 64 query points.
  const auto poly = geo::ConvexPolygon2D::hull_of(random_points(rng, 16, 2, 10.0));
  const auto queries = random_points(rng, 64, 2, 12.0);
  kernels.push_back({"geo.halfspace", queries.size(), [&poly, &queries] {
    std::size_t inside = 0;
    for (const auto& q : queries) inside += poly.contains(q) ? 1 : 0;
    if (inside > queries.size()) std::abort();
  }});

  // LP membership (simplex feasibility), dim 4, 12-point hull.
  const auto lp_pts = random_points(rng, 12, 4, 10.0);
  geo::Vec lp_q(4);  // near the centroid: the feasible (slow) LP path
  for (const auto& p : lp_pts) {
    for (std::size_t d = 0; d < 4; ++d) lp_q[d] += p[d] / 12.0;
  }
  kernels.push_back({"geo.lp", lp_pts.size(), [&lp_pts, &lp_q] {
    if (!geo::in_convex_hull(lp_pts, lp_q)) std::abort();
  }});

  // Full 2D safe-area computation (C(8,2) = 28 restriction clips).
  const auto sa2_pts = random_points(rng, 8, 2, 10.0);
  kernels.push_back({"geo.safe_area_2d", sa2_pts.size(), [&sa2_pts] {
    const auto area = geo::SafeArea::compute(sa2_pts, 2);
    if (area.empty()) std::abort();
  }});

  // 3D safe area via the sampled-support kernel (16 directions keeps the
  // calibration loop fast; the ablation bench sweeps direction counts).
  const auto sa3_pts = random_points(rng, 6, 3, 10.0);
  geo::SafeAreaOptions sa3_opts;
  sa3_opts.support_directions = 16;
  kernels.push_back({"geo.safe_area_3d", sa3_pts.size(), [&sa3_pts, &sa3_opts] {
    const auto area = geo::SafeArea::compute(sa3_pts, 1, sa3_opts);
    if (area.empty()) std::abort();
  }});

  // Calibrate each kernel's inner repetition count once, then take the
  // sample rounds ROUND-ROBIN across kernels: CPU-frequency / contention
  // noise arrives in multi-millisecond epochs, so back-to-back samples of
  // one kernel would all land in the same epoch and its minimum would track
  // the epoch, not the code. Interleaving spreads every kernel's samples
  // over the full measurement window.
  using Clock = std::chrono::steady_clock;
  constexpr double kMinSampleS = 0.01;
  constexpr int kRounds = 9;
  std::vector<std::uint64_t> reps(kernels.size(), 1);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (;;) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < reps[k]; ++i) kernels[k].fn();
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (s >= 2.0 * kMinSampleS || reps[k] >= (1ULL << 30)) break;
      reps[k] *= 2;
    }
  }
  std::vector<Stats> per_rep(kernels.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const auto t0 = Clock::now();
      for (std::uint64_t r = 0; r < reps[k]; ++r) kernels[k].fn();
      per_rep[k].add(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(reps[k]));
    }
  }

  std::vector<BenchMetric> out;
  out.reserve(kernels.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    // Min, not mean or median: noise only ever inflates a sample (see
    // time_rate).
    const TimedRate rate{.seconds_per_rep = per_rep[k].summary().min,
                         .repetitions = reps[k] * kRounds};
    out.push_back(per_point_metric(kernels[k].name, rate, kernels[k].points));
  }
  return out;
}

}  // namespace hydra::harness
