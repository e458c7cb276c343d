#include "harness/sweep.hpp"

#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "harness/stats.hpp"
#include "obs/json.hpp"

namespace hydra::harness {
namespace {

/// One deque per worker: the owner pops from the front, thieves take from
/// the back (classic work-stealing discipline — owners and thieves contend
/// on opposite ends, and stolen work is the oldest, i.e. the work the owner
/// is furthest from reaching). A plain mutex per deque is plenty here: tasks
/// are whole simulator runs, so queue operations are nowhere near the
/// bottleneck.
class StealQueue {
 public:
  void push(std::size_t index) {
    const std::lock_guard lock(mutex_);
    items_.push_back(index);
  }

  std::optional<std::size_t> pop_front() {
    const std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    const std::size_t index = items_.front();
    items_.pop_front();
    return index;
  }

  std::optional<std::size_t> steal_back() {
    const std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    const std::size_t index = items_.back();
    items_.pop_back();
    return index;
  }

 private:
  std::mutex mutex_;
  std::deque<std::size_t> items_;
};

/// The cell identity: every spec field except seed and the output paths.
std::string cell_key(const RunSpec& spec) {
  std::ostringstream key;
  key << to_string(spec.protocol) << '|' << to_string(spec.network) << '|'
      << to_string(spec.adversary) << '|' << to_string(spec.workload) << '|'
      << spec.params.n << '|' << spec.params.ts << '|' << spec.params.ta << '|'
      << spec.params.dim << '|' << spec.params.eps << '|' << spec.params.delta
      << '|' << spec.corruptions << '|' << spec.workload_scale << '|'
      << spec.faults << '|' << spec.backend << '|' << spec.max_time << '|'
      << spec.us_per_tick << '|' << spec.timeout_ms;
  // Gated like the trace meta and run id: pre-domain-layer keys unchanged.
  if (!spec.domain.empty() && spec.domain != "euclid") key << '|' << spec.domain;
  return key.str();
}

void stats_json(obs::JsonWriter& w, std::string_view name, const Stats& stats) {
  w.key(name);
  w.begin_object();
  w.kv("mean", stats.mean());
  w.kv("min", stats.min());
  w.kv("max", stats.max());
  w.end_object();
}

}  // namespace

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

std::vector<RunResult> run_sweep(const std::vector<RunSpec>& grid, std::size_t jobs,
                                 const SweepProgressFn& on_done) {
  std::vector<RunResult> results(grid.size());
  if (grid.empty()) return results;

  const std::size_t workers = std::min(resolve_jobs(jobs), grid.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      results[i] = execute(grid[i]);
      if (on_done) on_done(i, results[i]);
    }
    return results;
  }

  // Deal round-robin so neighbouring (similar-cost) cells spread across
  // workers; stealing balances whatever asymmetry remains.
  std::vector<StealQueue> queues(workers);
  for (std::size_t i = 0; i < grid.size(); ++i) queues[i % workers].push(i);

  std::mutex done_mutex;
  auto work = [&](std::size_t worker_id) {
    for (;;) {
      std::optional<std::size_t> index = queues[worker_id].pop_front();
      for (std::size_t k = 1; !index && k < workers; ++k) {
        index = queues[(worker_id + k) % workers].steal_back();
      }
      // All queues drained: since the grid is fully enqueued up front no new
      // work can appear, so one empty scan means this worker is done.
      if (!index) return;
      // Distinct elements of `results`; no lock needed. execute() installs
      // the run's own obs::Context on this thread.
      results[*index] = execute(grid[*index]);
      if (on_done) {
        const std::lock_guard lock(done_mutex);
        on_done(*index, results[*index]);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work, w);
  for (auto& thread : threads) thread.join();
  return results;
}

std::vector<SweepCell> group_cells(const std::vector<RunSpec>& grid,
                                   const std::vector<RunResult>& results) {
  HYDRA_ASSERT(grid.size() == results.size());
  std::vector<SweepCell> cells;
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto key = cell_key(grid[i]);
    auto it = by_key.find(key);
    if (it == by_key.end()) {
      it = by_key.emplace(key, cells.size()).first;
      cells.push_back(SweepCell{grid[i], {}, 0, {}});
    }
    auto& cell = cells[it->second];
    cell.indices.push_back(i);
    if (results[i].verdict.d_aa()) {
      cell.passed += 1;
    } else {
      cell.failed_seeds.push_back(grid[i].seed);
    }
  }
  return cells;
}

bool write_sweep_summary_json(const std::string& path,
                              const std::vector<RunSpec>& grid,
                              const std::vector<RunResult>& results,
                              std::size_t jobs) {
  const auto cells = group_cells(grid, results);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("jobs", std::uint64_t{resolve_jobs(jobs)});
  w.kv("runs", std::uint64_t{grid.size()});
  std::size_t passed = 0;
  for (const auto& cell : cells) passed += cell.passed;
  w.kv("passed", std::uint64_t{passed});
  std::uint64_t total_monitor_violations = 0;
  for (const auto& r : results) total_monitor_violations += r.monitor_violations;
  w.kv("monitor_violations", total_monitor_violations);

  w.key("cells");
  w.begin_array();
  for (const auto& cell : cells) {
    const auto& spec = cell.spec;
    w.begin_object();
    write_spec_json(w, spec, /*with_seed=*/false);

    Stats rounds;
    Stats messages;
    Stats diameters;
    std::uint64_t fallbacks = 0;
    std::uint64_t hit_limit = 0;
    std::uint64_t monitor_violations = 0;
    std::uint64_t monitor_aborted = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t finished = 0;
    std::uint64_t crash_stopped = 0;
    std::uint64_t progress_events = 0;
    for (const auto index : cell.indices) {
      const auto& r = results[index];
      rounds.add(r.rounds);
      messages.add(static_cast<double>(r.messages));
      diameters.add(r.verdict.output_diameter);
      fallbacks += r.safe_area_fallbacks;
      hit_limit += r.hit_limit ? 1 : 0;
      monitor_violations += r.monitor_violations;
      monitor_aborted += r.monitor_aborted ? 1 : 0;
      timed_out += r.timed_out ? 1 : 0;
      for (const auto& p : r.progress) {
        finished += p.finished ? 1 : 0;
        crash_stopped += p.crash_stopped ? 1 : 0;
        progress_events += p.events;
      }
    }
    w.kv("runs", std::uint64_t{cell.indices.size()});
    w.kv("passed", std::uint64_t{cell.passed});
    w.key("failed_seeds");
    w.begin_array();
    for (const auto seed : cell.failed_seeds) w.value(seed);
    w.end_array();
    stats_json(w, "rounds", rounds);
    stats_json(w, "messages", messages);
    stats_json(w, "output_diameter", diameters);
    w.kv("safe_area_fallbacks", fallbacks);
    w.kv("hit_limit", hit_limit);
    w.kv("monitor_violations", monitor_violations);
    w.kv("monitor_aborted", monitor_aborted);
    // Thread-backend progress aggregates (all zero on the simulator, which
    // reports no watchdog snapshot): party-run totals across the cell's
    // seeds, so a stalled or timed-out backend shows up per cell.
    w.kv("timed_out", timed_out);
    w.kv("parties_finished", finished);
    w.kv("parties_crash_stopped", crash_stopped);
    w.kv("progress_events", progress_events);
    w.end_object();
  }
  w.end_array();

  // Flat failure list so scripts can re-run exactly the failing points.
  w.key("failures");
  w.begin_array();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const auto seed : cells[c].failed_seeds) {
      w.begin_object();
      w.kv("cell", std::uint64_t{c});
      w.kv("seed", seed);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    HYDRA_LOG_ERROR("sweep: cannot open %s for writing", path.c_str());
    return false;
  }
  const std::string& doc = w.str();
  // A summary that silently truncates (disk full, quota) is worse than none:
  // downstream tooling would trust a partial cell table. Check every write.
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) HYDRA_LOG_ERROR("sweep: short write to %s", path.c_str());
  return ok;
}

}  // namespace hydra::harness
