// hydra-aa benchmark program: runs one workload for a fixed wall-clock window
// through the library's public entry points (harness::execute for single
// agreements, serve::run_serve for multiplexed serving, the domain and codec
// calls and threads-backend runs for the layer replays), judges every output
// with the D-AA oracle, and prints the metrics, ending with one JSON line.
//
//   hydra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--spans-out FILE]
//
// --work-dir (default .bench_build/work) receives the phase profiles of
// traced runs; --spans-out receives the spans and phase totals.
//
// --trace 0 measures the end-to-end metrics with no profiler installed.
// --trace 1 is the separate traced run: it alternates untraced and traced
// calls on the same inputs (their ratio is the tracing overhead), rolls the
// obs::Profiler phases up into the src/ modules, and times the layer
// replays. README.md defines every workload and metric.
//
// Exit status: 0 when every output check passed. 1 when one failed: an
// agreement the D-AA oracle rejected (liveness included), a hit limit, a
// timeout, a monitor violation, or a sim rerun that diverged; the result line
// is still printed, with "correct": false. 2 on usage or I/O errors, with no
// result line.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "domain/domain.hpp"
#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "protocols/codec.hpp"
#include "serve/engine.hpp"
#include "serve/instance_mux.hpp"

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "hydra_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ------------------------------------------------------------------ workloads

struct Workload {
  bool serve = false;      ///< run_serve batches instead of solo runs
  harness::RunSpec solo;   ///< template; the seed is set per item
  serve::ServeSpec batch;  ///< template; the seed is set per item
  /// Items every run makes, however short the window. Metrics that are
  /// exact on sim are taken over this prefix, so they repeat bit-for-bit
  /// across runs of one seed whatever the machine's speed.
  std::size_t min_items = 1;
  std::size_t min_traced = 1;  ///< the same for the traced calls of --trace 1

  [[nodiscard]] const protocols::Params& params() const {
    return serve ? batch.params : solo.params;
  }
  [[nodiscard]] bool monitored() const {
    return (serve ? batch.monitors : solo.monitors) != obs::MonitorMode::kOff;
  }
};

protocols::Params make_params(std::size_t n, std::size_t ts, std::size_t ta,
                              std::size_t dim, Duration delta) {
  protocols::Params p;
  p.n = n;
  p.ts = ts;
  p.ta = ta;
  p.dim = dim;
  p.eps = 1e-2;
  p.delta = delta;
  return p;
}

// Sequential closed loop of single ΠAA runs — `hydra run`.
Workload solo_workload(protocols::Params p, harness::Adversary adversary,
                       std::size_t corruptions, harness::Network network) {
  Workload w;
  w.solo.params = p;
  w.solo.adversary = adversary;
  w.solo.corruptions = corruptions;
  w.solo.network = network;
  return w;
}

constexpr std::array<std::string_view, 4> kWorkloads = {
    "solo-d2-n16", "serve-sim-n5-monitored", "selftest-over-ts", "selftest-silent-over-ts"};

std::optional<Workload> find_workload(std::string_view name) {
  Workload w;
  if (name == "solo-d2-n16") {
    // Turncoats under heavy-tailed reordering: the ROADMAP's reference run.
    w = solo_workload(make_params(16, 4, 2, 2, 1000), harness::Adversary::kTurncoat, 2,
                      harness::Network::kAsyncReorder);
    w.min_items = 8;
    w.min_traced = 3;
  } else if (name == "serve-sim-n5-monitored") {
    // Open loop on the virtual clock: instance k is due at tick k * 50.
    w.serve = true;
    w.batch.params = make_params(5, 1, 1, 2, 200);
    w.batch.network = harness::Network::kSyncJitter;
    w.batch.instances = 250;
    w.batch.interarrival = 50;
    w.batch.monitors = obs::MonitorMode::kRecord;
    w.min_items = 4;
    w.min_traced = 2;
  } else if (name == "selftest-over-ts") {
    // Three outlier corruptions against ts = 1: every party decides, but
    // the oracle must reject the outputs.
    w = solo_workload(make_params(5, 1, 1, 2, 1000), harness::Adversary::kOutlier, 3,
                      harness::Network::kSyncJitter);
    w.min_items = 2;
  } else if (name == "selftest-silent-over-ts") {
    // Three silent corruptions against ts = 1: the two honest parties can
    // never gather n - ts values, so no run may count as live.
    w = solo_workload(make_params(5, 1, 1, 2, 1000), harness::Adversary::kSilent, 3,
                      harness::Network::kSyncJitter);
    w.min_items = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------- statistics

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of harness::Stats; 0 for an empty sample.
double percentile(const harness::Stats& s, double p) { return s.percentile(p).value_or(0.0); }

double mean(const harness::Stats& s) { return s.empty() ? 0.0 : s.mean(); }

// --------------------------------------------------------------------- spans

/// The benchmark's own spans: setup, each timed call, each layer replay.
/// Kept in memory and written out when the run ends.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  std::size_t open(std::string name, std::int64_t item = -1) {
    spans_.push_back({std::move(name), item, ms_now(), 0.0});
    return spans_.size() - 1;
  }
  void close(std::size_t idx) { spans_[idx].end_ms = ms_now(); }

  void write(obs::JsonWriter& w) const {
    w.begin_array();
    for (const auto& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("item", s.item);
      w.kv("start_ms", s.start_ms);
      w.kv("end_ms", s.end_ms);
      w.end_object();
    }
    w.end_array();
  }

 private:
  struct Span {
    std::string name;
    std::int64_t item;
    double start_ms;
    double end_ms;
  };
  double ms_now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------------- items

/// One timed call — a solo run or a serve batch — judged and summarised.
struct Item {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;  ///< agreements: one per run or instance
  std::uint64_t failed = 0;     ///< agreements that failed any check
  std::uint64_t decided = 0;    ///< agreements every honest party decided
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<double> rounds;      ///< decision latency in Delta, per decision
  std::vector<double> iterations;  ///< max output iteration, per decision
  std::uint64_t live_peak = 0;
  std::uint64_t slots = 0;
  std::uint64_t monitor_violations = 0;
  std::uint64_t fallbacks = 0;
  std::string fingerprint;  ///< outputs and wire totals, for determinism
  std::string failure;      ///< what failed, for the report; empty if nothing
  std::vector<harness::PhaseRow> phases;  ///< traced calls only
};

std::string hexf(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", d);
  return buf;
}

/// A run passes when the D-AA oracle accepts it — every honest party
/// decided, validly and within eps — with no limit hit, no timeout and no
/// monitor violation.
Item judge(const harness::RunResult& r) {
  Item it;
  it.attempted = 1;
  const bool pass =
      r.verdict.d_aa() && !r.hit_limit && !r.timed_out && r.monitor_violations == 0;
  it.failed = pass ? 0 : 1;
  it.messages = r.messages;
  it.bytes = r.bytes;
  if (r.verdict.live) {
    it.decided = 1;
    it.rounds.push_back(r.rounds);
    it.iterations.push_back(r.max_output_iteration);
  }
  it.monitor_violations = r.monitor_violations;
  it.fallbacks = r.safe_area_fallbacks;
  if (!pass) {
    it.failure = std::string("live ") + (r.verdict.live ? "yes" : "no") + ", valid " +
                 (r.verdict.valid ? "yes" : "no") + ", agreed " +
                 (r.verdict.agreed ? "yes" : "no") + (r.hit_limit ? ", hit_limit" : "") +
                 (r.timed_out ? ", timed out: " + r.timeout_detail : "") + ", " +
                 std::to_string(r.monitor_violations) + " monitor violations";
  }
  it.fingerprint = hexf(r.verdict.output_diameter) + "/" + std::to_string(r.messages) +
                   "/" + std::to_string(r.bytes) + "/" + std::to_string(r.end_time) +
                   "/" + std::to_string(r.max_output_iteration);
  for (const double d : r.iteration_diameters) it.fingerprint += "," + hexf(d);
  return it;
}

/// An instance passes under the same rule: decided by every honest party,
/// accepted by the oracle, no monitor violation. A batch that hit a limit
/// or timed out fails as a whole.
Item judge(const serve::ServeResult& r, const serve::ServeSpec& spec) {
  Item it;
  const double delta = static_cast<double>(spec.params.delta);
  std::uint64_t undecided = 0;
  for (const auto& o : r.outcomes) {
    it.attempted += 1;
    if (!o.decided || !o.pass || o.monitor_violations != 0) it.failed += 1;
    if (o.decided) {
      it.decided += 1;
      it.rounds.push_back(static_cast<double>(o.decision_latency) / delta);
      it.iterations.push_back(o.max_output_iteration);
    } else {
      undecided += 1;
    }
    it.fingerprint += std::to_string(o.decided) + std::to_string(o.pass) + ":" +
                      std::to_string(o.decision_latency) + ":" +
                      std::to_string(o.max_output_iteration) + ":" +
                      hexf(o.output_diameter) + ":" + std::to_string(o.messages) + ":" +
                      std::to_string(o.bytes) + ";";
  }
  if ((r.hit_limit || r.timed_out) && it.failed == 0) it.failed = 1;
  if (it.failed != 0) {
    it.failure = std::to_string(it.failed) + " of " + std::to_string(it.attempted) +
                 " instances failed, " + std::to_string(undecided) + " undecided, " +
                 std::to_string(r.monitor_violations) + " monitor violations" +
                 (r.hit_limit ? ", hit_limit" : "") + (r.timed_out ? ", timed out" : "");
  }
  it.messages = r.messages;
  it.bytes = r.bytes;
  it.live_peak = r.live_peak;
  it.slots = r.slots_allocated;
  it.monitor_violations = r.monitor_violations;
  it.fingerprint += std::to_string(r.messages) + "/" + std::to_string(r.bytes) + "/" +
                    std::to_string(r.end_time);
  return it;
}

/// Sums of a run of items (the first `limit`).
struct Totals {
  double wall_s = 0.0;
  std::uint64_t attempted = 0, failed = 0, decided = 0;
  std::uint64_t messages = 0, bytes = 0;
  std::uint64_t live_peak = 0, slots = 0, monitor_violations = 0, fallbacks = 0;
  harness::Stats walls, rounds, iterations;
};

Totals totals(const std::vector<Item>& items, std::size_t limit = SIZE_MAX) {
  Totals t;
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    const Item& it = items[i];
    t.wall_s += it.wall_s;
    t.walls.add(it.wall_s);
    t.attempted += it.attempted;
    t.failed += it.failed;
    t.decided += it.decided;
    t.messages += it.messages;
    t.bytes += it.bytes;
    t.live_peak = std::max(t.live_peak, it.live_peak);
    t.slots = std::max(t.slots, it.slots);
    t.monitor_violations += it.monitor_violations;
    t.fallbacks += it.fallbacks;
    for (const double x : it.rounds) t.rounds.add(x);
    for (const double x : it.iterations) t.iterations.add(x);
  }
  return t;
}

/// Phase totals summed over items (the first `limit`), by phase name.
std::map<std::string, harness::PhaseRow> phase_totals(const std::vector<Item>& items,
                                                      std::size_t limit = SIZE_MAX) {
  std::map<std::string, harness::PhaseRow> out;
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    for (const auto& row : items[i].phases) {
      auto& acc = out[row.name];
      acc.name = row.name;
      acc.count += row.count;
      acc.total_ns += row.total_ns;
      acc.self_ns += row.self_ns;
    }
  }
  return out;
}

// --------------------------------------------------------------------- bench

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Bench {
 public:
  Bench(Workload w, Options o, Clock::time_point origin)
      : w_(std::move(w)), o_(std::move(o)), spans_(origin) {}

  /// Backend registration, replay-input generation and one warm-up call.
  void setup() {
    const auto span = spans_.open("bench.setup");
    harness::ensure_backends_registered();
    make_replay_inputs();
    warm_up();
    spans_.close(span);
  }

  /// --trace 0: untraced calls for the whole window.
  void run_end_to_end() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < w_.min_items || seconds_since(t0) < o_.seconds; ++i) {
      plain_.push_back(call(i, Mode::kPlain));
    }
    check_determinism();
  }

  /// --trace 1: untraced and traced calls alternate on the same inputs, and
  /// a third untraced call flips the monitors (off on a monitored workload,
  /// `record` otherwise) to measure their cost. The layer replays follow.
  void run_traced() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0;
         i < w_.min_traced || seconds_since(t0) < 0.75 * o_.seconds; ++i) {
      plain_.push_back(call(i, Mode::kPlain));
      traced_.push_back(call(i, Mode::kTraced));
      flipped_.push_back(call(i, Mode::kMonitorsFlipped));
    }
    const double replay_s = std::max(0.3, 0.1 * o_.seconds);
    replay_aggregate(replay_s);
    replay_codec(replay_s / 2);
    replay_transport(replay_s);
    check_determinism();
  }

  /// Every call the run made, for attempted, failed and the output checks.
  [[nodiscard]] Totals all_totals() const {
    std::vector<Item> all = plain_;
    all.insert(all.end(), traced_.begin(), traced_.end());
    all.insert(all.end(), flipped_.begin(), flipped_.end());
    all.insert(all.end(), transport_.begin(), transport_.end());
    if (rerun_) all.push_back(*rerun_);
    return totals(all);
  }

  /// One line per failed call: which call and what failed.
  [[nodiscard]] std::vector<std::string> failures() const {
    static constexpr std::array<const char*, 4> kMode = {"plain", "traced",
                                                         "monitors-flipped", "transport"};
    std::vector<std::string> out;
    for (std::size_t m = 0; m < 4; ++m) {
      const auto& items = m == 0 ? plain_ : m == 1 ? traced_ : m == 2 ? flipped_ : transport_;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].failed == 0) continue;
        const std::string seed =
            m < 3 ? " (seed " + std::to_string(item_seed(i)) + ")" : std::string();
        out.push_back(std::string(kMode[m]) + " call " + std::to_string(i) + seed + ": " +
                      items[i].failure);
      }
    }
    if (rerun_ && rerun_->failed != 0) out.push_back("rerun of item 0: " + rerun_->failure);
    return out;
  }

  [[nodiscard]] bool checks_passed(std::string* why) const {
    if (!deterministic_) *why += " sim rerun diverged from the first run;";
    if (!codec_ok_) *why += " decode_pairs rejected an encode_pairs payload;";
    if (all_totals().failed > 0) {
      *why += " agreements failed the D-AA oracle, a limit, a timeout or a monitor;";
    }
    return why->empty();
  }

  [[nodiscard]] std::vector<Metric> end_to_end(double setup_s) const;
  [[nodiscard]] std::vector<Metric> per_layer() const;
  [[nodiscard]] std::string layer_table() const;
  void write_spans(const std::vector<Metric>& metrics) const;

 private:
  enum class Mode { kPlain, kTraced, kMonitorsFlipped };

  static obs::MonitorMode flipped(obs::MonitorMode mode) {
    return mode == obs::MonitorMode::kOff ? obs::MonitorMode::kRecord
                                          : obs::MonitorMode::kOff;
  }

  std::uint64_t item_seed(std::size_t i) const {
    return serve::instance_seed(o_.seed, static_cast<std::uint32_t>(i));
  }

  Item call(std::size_t i, Mode mode) {
    static constexpr std::array<const char*, 3> kSpan = {
        "bench.call.plain", "bench.call.traced", "bench.call.monitors_flipped"};
    const auto span =
        spans_.open(kSpan[static_cast<std::size_t>(mode)], static_cast<std::int64_t>(i));
    Item it = w_.serve ? call_serve(i, mode) : call_solo(i, mode);
    spans_.close(span);
    return it;
  }

  /// A fresh path in the work directory for a RunSpec::perf_out profile.
  std::string perf_path(const char* name) const {
    std::error_code ec;
    std::filesystem::create_directories(o_.work_dir, ec);
    if (ec) die("cannot create " + o_.work_dir + ": " + ec.message());
    std::string path = o_.work_dir + "/" + name;
    std::remove(path.c_str());  // never read a stale profile
    return path;
  }

  Item call_solo(std::size_t i, Mode mode) {
    harness::RunSpec spec = w_.solo;
    spec.seed = item_seed(i);
    if (mode == Mode::kMonitorsFlipped) spec.monitors = flipped(spec.monitors);
    if (mode == Mode::kTraced) spec.perf_out = perf_path("perf.json");
    const auto t0 = Clock::now();
    const auto result = harness::execute(spec);
    const double wall = seconds_since(t0);
    Item it = judge(result);
    it.wall_s = wall;
    if (mode == Mode::kTraced) {
      auto rows = harness::load_perf_json(spec.perf_out);
      if (!rows) die("cannot read the phase profile " + spec.perf_out);
      it.phases = std::move(*rows);
    }
    return it;
  }

  Item call_serve(std::size_t i, Mode mode) {
    serve::ServeSpec spec = w_.batch;
    spec.seed = item_seed(i);
    if (mode == Mode::kMonitorsFlipped) spec.monitors = flipped(spec.monitors);
    obs::Profiler prof;
    if (mode == Mode::kTraced) {
      // run_serve installs no run context, so the process-wide profiler
      // reaches the event loop. Enabling observability matches what
      // RunSpec::perf_out does for solo runs.
      obs::set_enabled(true);
      obs::set_profiler(&prof);
    }
    const auto fallbacks_before = obs::safe_area_fallback_slot().load();
    const auto t0 = Clock::now();
    const auto result = serve::run_serve(spec);
    const double wall = seconds_since(t0);
    if (mode == Mode::kTraced) {
      obs::set_profiler(nullptr);
      obs::set_enabled(false);
    }
    Item it = judge(result, spec);
    it.wall_s = wall;
    it.fallbacks = obs::safe_area_fallback_slot().load() - fallbacks_before;
    for (const auto& s : prof.snapshot()) {
      it.phases.push_back({.name = s.name, .count = s.count, .total_ns = s.total_ns,
                           .self_ns = s.self_ns});
    }
    return it;
  }

  /// One small call on the workload's backend. Its seed is fixed: the
  /// duration of a small async-reorder run varies 30x with its inputs, so a
  /// seeded warm-up would make setup_s depend on --seed.
  void warm_up() {
    constexpr std::uint64_t kWarmUpSeed = 1;
    if (w_.serve) {
      serve::ServeSpec spec = w_.batch;
      spec.instances = 1;
      spec.seed = kWarmUpSeed;
      (void)serve::run_serve(spec);
    } else {
      // A small feasible agreement in the workload's dimension, on its
      // backend and network.
      const std::size_t dim = w_.solo.params.dim;
      harness::RunSpec spec = w_.solo;
      spec.params = make_params(dim + 3, 1, 0, dim, w_.solo.params.delta);
      spec.adversary = harness::Adversary::kNone;
      spec.corruptions = 0;
      spec.seed = kWarmUpSeed;
      (void)harness::execute(spec);
    }
  }

  /// Aggregation multisets with |M| = m in [n - ts, n], the shapes
  /// aa_iteration.cpp passes, and n-pair codec payloads in D dimensions.
  void make_replay_inputs() {
    const auto& p = w_.params();
    multisets_.clear();
    pair_lists_.clear();
    for (std::uint32_t j = 0; j < 64; ++j) {
      const std::size_t m = p.n - p.ts + j % (p.ts + 1);
      multisets_.push_back(harness::make_inputs(harness::Workload::kUniformBall, m, p.dim,
                                                10.0, serve::instance_seed(~o_.seed, j)));
      const auto values = harness::make_inputs(harness::Workload::kUniformBall, p.n, p.dim,
                                               10.0, serve::instance_seed(o_.seed + 1, j));
      protocols::PairList pairs;
      for (std::size_t k = 0; k < values.size(); ++k) {
        pairs.emplace_back(static_cast<PartyId>(k), values[k]);
      }
      pair_lists_.push_back(std::move(pairs));
    }
  }

  /// Times domain::resolve(nullptr).aggregate, t = max(m - (n - ts), ta)
  /// being derived by the domain from |M|. Calls too short to time alone
  /// are timed in batches.
  void replay_aggregate(double budget_s) {
    const auto span = spans_.open("bench.replay.aggregate");
    const auto& p = w_.params();
    const domain::AggregateSpec spec{
        .n = p.n, .ts = p.ts, .ta = p.ta, .centroid = false, .safe_opts = p.safe_opts};
    const auto& dom = domain::resolve(nullptr);
    auto time_us = [&](const std::vector<geo::Vec>& values, int reps) {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) sink_ += dom.aggregate(spec, values).value[0];
      return seconds_since(t0) * 1e6 / reps;
    };
    const int reps = time_us(multisets_[0], 1) < 20.0 ? 64 : 1;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < multisets_.size() || seconds_since(t0) < budget_s; ++j) {
      aggregate_us_.add(time_us(multisets_[j % multisets_.size()], reps));
    }
    spans_.close(span);
  }

  /// Times encode_pairs and decode_pairs, each sample a batch of calls.
  void replay_codec(double budget_s) {
    const auto span = spans_.open("bench.replay.codec");
    const auto& p = w_.params();
    constexpr int kReps = 256;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < pair_lists_.size() || seconds_since(t0) < budget_s; ++j) {
      const auto& pairs = pair_lists_[j % pair_lists_.size()];
      const Bytes bytes = protocols::encode_pairs(pairs);
      const auto round_trip = protocols::decode_pairs(bytes, p.dim, p.n);
      codec_ok_ = codec_ok_ && round_trip && *round_trip == pairs;
      auto s0 = Clock::now();
      for (int r = 0; r < kReps; ++r) {
        sink_ += static_cast<double>(protocols::encode_pairs(pairs).size());
      }
      encode_ns_.add(seconds_since(s0) * 1e9 / kReps);
      s0 = Clock::now();
      for (int r = 0; r < kReps; ++r) {
        const auto decoded = protocols::decode_pairs(bytes, p.dim, p.n);
        sink_ += decoded ? static_cast<double>(decoded->size()) : 0.0;
      }
      decode_ns_.add(seconds_since(s0) * 1e9 / kReps);
    }
    spans_.close(span);
  }

  /// Solo agreements on the threads backend, one party thread each: n=4
  /// ts=1 ta=1 D=1, no corruptions, sync-jitter, Delta = 200 ticks = 1 ms.
  /// No workload runs on threads: on a loaded machine 10-50% of such runs
  /// fall back to the 30x slower asynchronous path, and no bound holds on
  /// that. So the transport is measured here, the same on every workload.
  ///
  /// Each input runs traced, then timed, then on sim under sync-worst, where
  /// every message takes exactly Delta. A run stayed on the synchronous path
  /// when it decided within twice the rounds of that sim run.
  void replay_transport(double budget_s) {
    const auto span = spans_.open("bench.replay.transport");
    harness::RunSpec spec;
    spec.params = make_params(4, 1, 1, 1, 200);
    spec.network = harness::Network::kSyncJitter;
    spec.backend = "threads";
    spec.us_per_tick = 5.0;
    spec.timeout_ms = 5'000;
    std::uint64_t within = 0;
    double traced_s = 0.0;
    const auto t0 = Clock::now();
    for (std::uint32_t j = 0; j < 8 || seconds_since(t0) < budget_s; ++j) {
      spec.seed = serve::instance_seed(o_.seed + 2, j);
      harness::RunSpec traced = spec;
      traced.perf_out = perf_path("perf-transport.json");
      auto s0 = Clock::now();
      transport_.push_back(judge(harness::execute(traced)));
      traced_s += seconds_since(s0);
      auto rows = harness::load_perf_json(traced.perf_out);
      if (!rows) die("cannot read the phase profile " + traced.perf_out);
      for (const auto& row : *rows) {
        if (row.name == "transport.worker") transport_worker_ns_ += row.self_ns;
      }
      s0 = Clock::now();
      Item it = judge(harness::execute(spec));
      it.wall_s = seconds_since(s0);
      transport_run_ms_.add(it.wall_s * 1e3);
      harness::RunSpec ref = spec;
      ref.backend = "sim";
      ref.network = harness::Network::kSyncWorstCase;
      const Item sync = judge(harness::execute(ref));
      if (!it.rounds.empty() && !sync.rounds.empty() &&
          it.rounds.front() <= 2.0 * sync.rounds.front()) {
        ++within;
      }
      transport_.push_back(std::move(it));
      transport_.push_back(sync);
    }
    sync_path_ratio_ = ratio(static_cast<double>(within),
                             static_cast<double>(transport_run_ms_.count()));
    // Each party thread runs its own event loop, so the profiled thread time
    // is the wall time n times over.
    transport_worker_share_ =
        ratio(static_cast<double>(transport_worker_ns_),
              traced_s * 1e9 * static_cast<double>(spec.params.n));
    spans_.close(span);
  }

  /// Item 0 again, untraced: on sim the outputs and wire totals must repeat
  /// exactly.
  void check_determinism() {
    const auto span = spans_.open("bench.determinism", 0);
    rerun_ = w_.serve ? call_serve(0, Mode::kPlain) : call_solo(0, Mode::kPlain);
    deterministic_ = rerun_->fingerprint == plain_.front().fingerprint;
    spans_.close(span);
  }

  /// Traced-run layer shares: self time over the traced calls' wall time
  /// (every workload runs on sim, in one thread).
  struct Layers {
    double wall_s = 0.0;
    double sim = 0.0, net_egress = 0.0, net_deliver = 0.0, protocols = 0.0;
    double geometry = 0.0;
    [[nodiscard]] double unattributed() const {
      return std::max(0.0, 1.0 - sim - net_egress - protocols - geometry);
    }
  };
  Layers layers() const;

  Workload w_;
  Options o_;
  Spans spans_;
  std::vector<std::vector<geo::Vec>> multisets_;
  std::vector<protocols::PairList> pair_lists_;
  std::vector<Item> plain_;
  std::vector<Item> traced_;
  std::vector<Item> flipped_;    ///< --trace 1: the other monitor mode
  std::vector<Item> transport_;  ///< --trace 1: the threads replay, judged
  std::optional<Item> rerun_;
  bool deterministic_ = true;
  bool codec_ok_ = true;
  double sync_path_ratio_ = 0.0;
  harness::Stats transport_run_ms_;
  std::uint64_t transport_worker_ns_ = 0;
  double transport_worker_share_ = 0.0;
  harness::Stats aggregate_us_;
  harness::Stats encode_ns_;
  harness::Stats decode_ns_;
  double sink_ = 0.0;  ///< keeps replayed results observable
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> Bench::end_to_end(double setup_s) const {
  const Totals all = totals(plain_);
  const Totals exact = totals(plain_, w_.min_items);
  const double decided = static_cast<double>(exact.decided);
  return {
      {"setup_s", "s", setup_s},
      {"run_ms_p50", "ms", percentile(all.walls, 50) * 1e3},
      {"instances_per_s", "1/s", ratio(static_cast<double>(all.decided), all.wall_s)},
      {"decision_rounds_mean", "delta", mean(exact.rounds)},
      {"msgs_per_decision", "msgs", ratio(static_cast<double>(exact.messages), decided)},
      {"bytes_per_decision", "B", ratio(static_cast<double>(exact.bytes), decided)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

Bench::Layers Bench::layers() const {
  Layers l;
  l.wall_s = totals(traced_).wall_s;
  const double den = l.wall_s * 1e9;
  for (const auto& [name, row] : phase_totals(traced_)) {
    const double share = ratio(static_cast<double>(row.self_ns), den);
    const auto in = [&name](std::string_view prefix) { return name.starts_with(prefix); };
    if (in("sim.")) l.sim += share;
    if (name == "net.egress") l.net_egress += share;
    if (name == "net.deliver") l.net_deliver += share;
    if (in("aa.")) l.protocols += share;
    if (in("geo.")) l.geometry += share;
  }
  return l;
}

std::vector<Metric> Bench::per_layer() const {
  const Layers l = layers();
  const std::size_t exact_traced = w_.min_traced;
  const auto phases = phase_totals(traced_, exact_traced);
  const double traced_decided = static_cast<double>(totals(traced_, exact_traced).decided);
  auto count = [&phases](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto per_decision = [&](const char* name) { return ratio(count(name), traced_decided); };
  const auto all_phases = phase_totals(traced_);
  const auto sim_run = all_phases.find("sim.run");
  const auto sim_event = all_phases.find("sim.event");
  const double sim_event_ns =
      sim_run == all_phases.end() || sim_event == all_phases.end()
          ? 0.0
          : ratio(static_cast<double>(sim_run->second.total_ns),
                  static_cast<double>(sim_event->second.count));

  const Totals plain = totals(plain_);
  const Totals exact = totals(plain_, w_.min_traced);
  const Totals traced = totals(traced_);
  const Totals all = all_totals();
  const double safe_areas = count("geo.safe_area");
  const auto plain_wall = [&](std::size_t n) { return totals(plain_, n).wall_s; };
  // Monitors on versus off over the same items.
  const double flipped_wall = totals(flipped_).wall_s;
  const double plain_flipped_wall = plain_wall(flipped_.size());
  const double monitors_on = w_.monitored() ? plain_flipped_wall : flipped_wall;
  const double monitors_off = w_.monitored() ? flipped_wall : plain_flipped_wall;

  return {
      {"geometry.self_share", "ratio", l.geometry},
      {"geometry.hull2d_per_decision", "count", per_decision("geo.hull2d")},
      {"geometry.clip_per_decision", "count", per_decision("geo.clip")},
      {"geometry.lp_simplex_per_decision", "count", per_decision("geo.lp.simplex")},
      {"geometry.exact_ratio", "ratio",
       ratio(safe_areas - count("geo.lp.witness"), safe_areas)},
      {"geometry.fallbacks", "count", static_cast<double>(all.fallbacks)},
      {"domain.aggregate_us_p50", "us", percentile(aggregate_us_, 50)},
      {"protocols.self_share", "ratio", l.protocols},
      {"protocols.iterations_p50", "count", percentile(exact.iterations, 50)},
      {"protocols.decision_rounds_p99", "delta", percentile(exact.rounds, 99)},
      {"protocols.sync_path_ratio", "ratio", sync_path_ratio_},
      {"codec.encode_ns_p50", "ns", percentile(encode_ns_, 50)},
      {"codec.decode_ns_p50", "ns", percentile(decode_ns_, 50)},
      {"codec.bytes_per_msg", "B",
       ratio(static_cast<double>(exact.bytes), static_cast<double>(exact.messages))},
      {"net.unattributed_share", "ratio", l.net_deliver},
      {"net.egress_self_share", "ratio", l.net_egress},
      {"net.msgs_per_s", "1/s", ratio(static_cast<double>(plain.messages), plain.wall_s)},
      {"sim.self_share", "ratio", l.sim},
      {"sim.event_ns", "ns", sim_event_ns},
      {"sim.events_per_decision", "count", per_decision("sim.event")},
      {"transport.run_ms_p50", "ms", percentile(transport_run_ms_, 50)},
      {"transport.worker_self_share", "ratio", transport_worker_share_},
      {"serve.live_peak", "count", static_cast<double>(exact.live_peak)},
      {"serve.slots_allocated", "count", static_cast<double>(exact.slots)},
      {"obs.monitor_overhead", "ratio",
       flipped_.empty() ? 0.0 : ratio(monitors_on, monitors_off) - 1.0},
      {"obs.trace_overhead", "ratio", ratio(traced.wall_s, plain_wall(traced_.size())) - 1.0},
      {"obs.monitor_violations", "count", static_cast<double>(all.monitor_violations)},
      {"unattributed_share", "ratio", l.unattributed()},
      {"fail_ratio", "ratio",
       ratio(static_cast<double>(all.failed), static_cast<double>(all.attempted))},
  };
}

std::string Bench::layer_table() const {
  const Layers l = layers();
  char buf[160];
  std::string out = "layer roll-up of the traced calls (share of their wall time):\n";
  const auto row = [&](const char* name, double share) {
    std::snprintf(buf, sizeof buf, "  %-34s %8.1f ms  %6.2f%%\n", name,
                  share * l.wall_s * 1e3, share * 100.0);
    out += buf;
  };
  row("sim (sim.*)", l.sim);
  row("net (net.egress)", l.net_egress);
  row("protocols (aa.*)", l.protocols);
  row("geometry (geo.*)", l.geometry);
  row("unattributed", l.unattributed());
  row("  of which net.deliver self", l.net_deliver);
  return out;
}

void Bench::write_spans(const std::vector<Metric>& metrics) const {
  if (o_.spans_out.empty()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", o_.workload);
  w.kv("seed", o_.seed);
  w.kv("trace", o_.trace);
  w.key("spans");
  spans_.write(w);
  w.key("phases");
  w.begin_object();
  for (const auto& [name, row] : phase_totals(traced_)) {
    w.key(name);
    w.begin_object();
    w.kv("count", row.count);
    w.kv("total_ns", row.total_ns);
    w.kv("self_ns", row.self_ns);
    w.end_object();
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& m : metrics) w.kv(m.name, m.value);
  w.end_object();
  w.end_object();
  std::ofstream f(o_.spans_out);
  f << w.str() << '\n';
  if (!f.good()) die("cannot write " + o_.spans_out);
}

// ----------------------------------------------------------------------- CLI

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      o.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--spans-out") {
      o.spans_out = value;
    } else {
      die("unknown option " + std::string(key));
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      die("bad value for " + std::string(key) + ": " + value);
    }
  }
  if (argc % 2 == 0) die("options take one value each");
  if (o.workload.empty()) die("--workload is required");
  if (!(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1)) {
    die("--seconds must be positive and --trace 0 or 1");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  const Options opts = parse(argc, argv);
  auto workload = find_workload(opts.workload);
  if (!workload) {
    std::string names;
    for (const auto name : kWorkloads) names += " " + std::string(name);
    die("unknown workload " + opts.workload + "; known:" + names);
  }
  Bench bench(std::move(*workload), opts, origin);

  // Set-up is repeated and its median reported; the first repetition is
  // timed from process start. A set-up takes 2-40 ms, and a threads warm-up
  // that falls back to the asynchronous path takes 30x longer: eleven
  // repetitions keep both that and the machine's jitter out of the median.
  harness::Stats setups;
  for (int k = 0; k < 11; ++k) {
    const auto t0 = k == 0 ? origin : Clock::now();
    bench.setup();
    setups.add(seconds_since(t0));
  }
  const double setup_s = percentile(setups, 50);

  if (opts.trace == 0) {
    bench.run_end_to_end();
  } else {
    bench.run_traced();
  }
  const auto metrics = opts.trace == 0 ? bench.end_to_end(setup_s) : bench.per_layer();

  std::string why;
  const bool correct = bench.checks_passed(&why);
  const Totals all = bench.all_totals();
  std::printf("workload %s  seed %llu  trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace);
  if (opts.trace == 1) std::printf("%s", bench.layer_table().c_str());
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const auto failures = bench.failures();
  for (std::size_t k = 0; k < failures.size() && k < 10; ++k) {
    std::printf("failed: %s\n", failures[k].c_str());
  }
  if (failures.size() > 10) std::printf("failed: ... and %zu more\n", failures.size() - 10);
  std::printf("attempted %llu  failed %llu  correct %s%s\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), correct ? "yes" : "NO:",
              why.c_str());
  bench.write_spans(metrics);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", all.attempted);
  w.kv("failed", all.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return correct ? 0 : 1;
}
