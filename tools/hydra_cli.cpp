// hydra — command-line driver for single runs and seed sweeps.
//
//   hydra run    [options]    execute one run, print the verdict and metrics
//   hydra sweep  [options]    execute --seeds runs (in parallel), print the
//                             pass rate
//   hydra serve  [options]    host a subset of parties over real sockets and
//                             wait for the peers (multi-process deployment;
//                             docs/DEPLOYMENT.md)
//   hydra join   [options]    alias of serve (same handshake; "serve" reads
//                             naturally for the first process, "join" for
//                             the rest)
//   hydra bench serve [options]
//                             sustain open-loop multi-instance load on a
//                             socket backend and report instances/sec
//   hydra report [options]    render a trace (+ metrics) into a readable
//                             report (markdown or single-file HTML); with
//                             --merge, stitch per-process traces first
//   hydra perf   [options]    measure the geometry kernels (ns/point) or
//                             render --perf-json phase profiles (glob/comma
//                             lists are merged into one attribution table)
//   hydra top    [options]    render the latest hydra-stats-v1 heartbeats of
//                             a live (or finished) run's --stats-json file
//   hydra list                print the accepted option values
//
// Both --key value and --key=value spellings are accepted. A subcommand
// rejects every key it does not act on (exit 2), and usage() prints each
// subcommand's keys from the option table below. The bracket after each key
// names the subcommands that take it: r = run, s = sweep, v = serve/join,
// b = bench serve.
//
// Agreement spec (with defaults):
//   --n 5 --ts 1 --ta 1 --dim 2 --eps 1e-2 --delta 1000          [r s v b]
//   --network sync-worst|sync-jitter|sync-target|sync-rush|
//             async-reorder|async-partition|async-exp             [r s v b]
//   --workload ball|simplex|clustered|collinear|gaussian --scale 10
//                                                                 [r s v b]
//   --aggregation midpoint|centroid                               [r s v b]
//   --seed 1          (a sweep runs seeds 1..--seeds instead)       [r v b]
//   --protocol hybrid|sync-lockstep|async-mh                        [r s v]
//   --adversary none|silent|crash|equivocate|outlier|halt-rush|spam|
//               straggler|turncoat|mixed --corrupt 1                [r s v]
//
// Value domain (src/domain/; docs/ARCHITECTURE.md "The domain layer"):
//   --domain euclid|tree|path                                       [r s v]
//                         euclid (default) is the paper's R^D. tree/path run
//                         approximate agreement over the vertices of a fixed
//                         graph (values are integer vertex labels, the safe
//                         area is an intersection of geodesic hulls). Graph
//                         domains run the hybrid protocol only, default to
//                         --dim 1, and need --eps >= 1 (1-agreement =
//                         adjacent vertices)
//
// Every cross-field rule (the protocol's resilience bound, corrupt < n, the
// fault plan, the graph-domain rules) is harness::spec_error, checked once
// after the subcommand's defaults are in (serve/join take n from --peers).
//
// Execution backend (src/net/; docs/ARCHITECTURE.md):
//   --backend sim|threads|tcp|uds                                 [r s v b]
//                         sim (default) is the deterministic discrete-event
//                         simulator; threads runs one OS thread per party
//                         under wall-clock time; tcp/uds run the socket
//                         transport, every non-self message crossing the OS
//                         as a length-prefixed frame (full mesh over
//                         loopback/tmpdir when single-process). All through
//                         the same delivery pipeline (verdicts judged
//                         identically). serve/join default to tcp, bench
//                         serve to uds; both take only tcp or uds
//
// hydra serve/join options (docs/DEPLOYMENT.md):                      [v]
//   --party I[,J...]      the parties THIS process hosts (required)
//   --peers A0,...,A(n-1) every party's endpoint, in PartyId order
//                         (required; "host:port" for tcp, socket paths for
//                         uds); n is taken from this list
//   --listen ADDR         overrides this process's own entry in --peers
//                         (single --party only), e.g. to bind 0.0.0.0
//   Every process must be started with the same spec (n, ts, ta, dim, seed,
//   protocol, ...) — inputs are a pure function of it. Exit status judges
//   the LOCAL parties. SIGTERM/SIGINT flush every registered trace/stats
//   sink before exiting (status 130), so a killed process leaves mergeable
//   JSONL behind.
//
// hydra bench serve options:                                          [b]
//   --instances 256 --interarrival 0 (ticks) --linger -1 (ticks; -1 = the
//   engine default) --json PATH (hydra-bench-v1 out)
//
// Live telemetry (docs/OBSERVABILITY.md "Live telemetry"):           [r v]
//   --stats-json PATH     hydra-stats-v1 JSONL heartbeats (wall clock; NOT
//                         byte-deterministic, unlike the trace)
//   --stats-interval MS   heartbeat period (default 1000)
//
// Fault injection (docs/ROBUSTNESS.md):                            [r s v]
//   --faults SPEC         semicolon-separated clauses, e.g.
//                         "dup(p=0.2);reorder(p=0.5,skew=2000);
//                          crash(party=0,at=5000[,until=20000]);
//                          partition(group=0.1,from=2000,until=9000)"
//
// Sweep options (docs/OBSERVABILITY.md "Parallel sweeps"):             [s]
//   --seeds 20            runs seeds 1..N
//   --jobs N              worker threads (0 = one per hardware thread, the
//                         default); every run executes in an isolated
//                         context, so results and per-seed output files are
//                         identical for any --jobs value
//   --sweep-json PATH     merged sweep summary (per-cell aggregates +
//                         failure list)
//
// Observability (docs/OBSERVABILITY.md):
//   --trace-out PATH      structured JSONL trace of the run         [r s v]
//   --metrics-json PATH   metrics snapshot (per-round counts,       [r s v]
//                         registry dump)
//   --perf-json PATH      hydra-perf-v1 phase profile of the run    [r s v]
//                         (scoped profiler; docs/OBSERVABILITY.md "Phase
//                         profiler"). Wall-clock ns — NOT byte-deterministic,
//                         unlike the trace/metrics files (phase counts are)
//   --log-level LEVEL     off|error|info|debug|trace (default     [r s v b]
//                         error, so a failing --trace-out/--metrics-json
//                         path is reported)
//   --monitors MODE       off|record|strict — online invariant  [r s v b]
//                         monitors (docs/OBSERVABILITY.md "Invariant
//                         monitors"); strict aborts the run on the first
//                         violation
// In sweep mode each seed writes PATH with a ".s<seed>" suffix before the
// extension, so no seed overwrites another.
//
// hydra report options:
//   --trace PATH          the JSONL trace to analyse (this or --merge)
//   --merge GLOB          stitch per-process traces (glob and/or comma list,
//                         e.g. 'trace.p*.jsonl') into one causally ordered
//                         timeline, re-evaluate the GLOBAL monitors when
//                         every process completed, and report THAT
//                         (docs/OBSERVABILITY.md "Distributed runs"); exits
//                         1 on merge errors or violations
//   --merged-out PATH     also write the stitched JSONL (only with --merge)
//   --metrics PATH        the run's --metrics-json document (optional)
//   --out PATH            output file (default: stdout)
//   --format md|html      report format (default md)
//   --title TEXT          report heading
//
// hydra perf options (docs/OBSERVABILITY.md "Measuring performance"); the
// two modes take disjoint keys:
//   (no --input)          measure the geometry kernels on fixed inputs and
//                         print ns/point per kernel
//   --json PATH           also write the measurements as hydra-bench-v1 JSON
//   --baseline PATH       compare against a checked-in bench JSON (e.g.
//                         bench/baselines/BENCH_geometry.json); prints the
//                         delta table and exits 1 past --budget
//   --budget FRAC         relative regression budget (default 0.10)
//   --input PATHS         instead: render --perf-json phase profiles as a
//                         self/total attribution table. Accepts a glob
//                         and/or comma list ('perf.p*.json'); multiple files
//                         merge into one table (counts/totals summed, min of
//                         mins, max of maxes, log2 buckets added)
//   --top K               show only the top K phases by self time
//
// hydra top options:
//   --input PATH          a --stats-json heartbeat file (required); renders
//                         the newest heartbeat per process plus per-party
//                         progress — run it while the processes are still up
//                         (or after; the final:1 line persists)
//
// Exit status: 0 when every executed run satisfied D-AA *and* no invariant
// monitor recorded a violation, 1 otherwise — usable directly in scripts
// and CI (sweeps with a non-empty failure list or any monitor violation
// exit 1). Usage errors exit 2.
#include <glob.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "common/names.hpp"
#include "domain/domain.hpp"
#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "obs/json.hpp"
#include "obs/merge.hpp"
#include "obs/monitor.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "options.hpp"
#include "serve/engine.hpp"
#include "transport/socket_net.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

/// The subcommands, as bits so an option row can name several.
enum Command : unsigned {
  kRun = 1u << 0,
  kSweep = 1u << 1,
  kServe = 1u << 2,  ///< serve and join
  kBench = 1u << 3,  ///< bench serve
  kReport = 1u << 4,
  kPerf = 1u << 5,
  kTop = 1u << 6,
};
constexpr unsigned kRunSpecCommands = kRun | kSweep | kServe;
constexpr unsigned kAgreementCommands = kRunSpecCommands | kBench;

constexpr NameRow<Command> kCommandNames[] = {
    {kRun, "run"},
    {kSweep, "sweep"},
    {kServe, "serve/join"},
    {kBench, "bench serve"},
    {kReport, "report"},
    {kPerf, "perf"},
    {kTop, "top"},
};

RunSpec default_spec() {
  RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = Network::kSyncJitter;
  spec.adversary = Adversary::kSilent;
  spec.corruptions = 1;
  spec.workload = Workload::kUniformBall;
  spec.workload_scale = 10.0;
  spec.seed = 1;
  return spec;
}

struct Options {
  RunSpec spec = default_spec();
  std::set<std::string, std::less<>> given;  ///< keys on the command line
  // sweep
  std::uint64_t seeds = 20;
  std::size_t jobs = 0;  ///< sweep workers; 0 = hardware concurrency
  std::string sweep_json;
  // serve/join (socket deployment)
  std::vector<PartyId> local_parties;   ///< --party
  std::vector<std::string> peers;       ///< --peers, one endpoint per party
  std::string listen;                   ///< --listen override for own entry
  // bench serve (multi-instance throughput)
  std::uint32_t instances = 256;
  Time interarrival = 0;                ///< ticks
  Duration linger = -1;                 ///< ticks (-1 = engine default)
  std::string bench_json;               ///< hydra-bench-v1 out (bench, perf)
  // report
  std::string trace;
  std::string merge;
  std::string merged_out;
  std::string metrics;
  std::string out;
  obs::ReportOptions report;
  // perf, top
  std::string baseline;
  double budget = 0.10;
  std::string input;
  std::size_t top = 0;
};

[[noreturn]] void usage(const std::string& error = {});

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(s);
  while (std::getline(in, token, ',')) out.push_back(token);
  return out;
}

/// One `--key value` pair on its way into Options.
struct Arg {
  const std::string& key;
  const std::string& value;

  template <typename T>
  void number(T& field) const {
    field = options::number<T>(key, value, &usage);
  }
  template <typename E, std::size_t N>
  void name(E& field, const NameRow<E> (&table)[N], std::string_view kind) const {
    const auto parsed = value_of(table, value);
    if (!parsed) usage(unknown_name(kind, value, names_of(table)));
    field = *parsed;
  }
};

enum class Kind { kNumber, kName, kPath, kText };

/// One row per key: its value kind, the subcommands that act on it, and how
/// it lands in Options. Parsing, unknown-key rejection and usage() all read
/// this table; a key outside its row's subcommands is an unknown option.
struct Option {
  std::string_view key;
  Kind kind;
  unsigned commands;
  void (*set)(Options&, const Arg&);
};

const Option kOptions[] = {
    {"n", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.n); }},
    {"ts", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.ts); }},
    {"ta", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.ta); }},
    {"dim", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.dim); }},
    {"eps", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.eps); }},
    {"delta", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.params.delta); }},
    {"network", Kind::kName, kAgreementCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.network, kNetworkNames, "network");
     }},
    {"workload", Kind::kName, kAgreementCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.workload, kWorkloadNames, "workload");
     }},
    {"scale", Kind::kNumber, kAgreementCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.workload_scale); }},
    {"aggregation", Kind::kName, kAgreementCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.params.aggregation, protocols::kAggregationNames, "aggregation");
     }},
    {"seed", Kind::kNumber, kRun | kServe | kBench,
     [](Options& o, const Arg& a) { a.number(o.spec.seed); }},
    {"protocol", Kind::kName, kRunSpecCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.protocol, kProtocolNames, "protocol");
     }},
    {"adversary", Kind::kName, kRunSpecCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.adversary, kAdversaryNames, "adversary");
     }},
    {"corrupt", Kind::kNumber, kRunSpecCommands,
     [](Options& o, const Arg& a) { a.number(o.spec.corruptions); }},
    {"domain", Kind::kName, kRunSpecCommands,
     [](Options& o, const Arg& a) { o.spec.domain = a.value; }},
    {"backend", Kind::kName, kAgreementCommands,
     [](Options& o, const Arg& a) { o.spec.backend = a.value; }},
    {"faults", Kind::kText, kRunSpecCommands,
     [](Options& o, const Arg& a) { o.spec.faults = a.value; }},
    {"monitors", Kind::kName, kAgreementCommands,
     [](Options& o, const Arg& a) {
       a.name(o.spec.monitors, obs::kMonitorModeNames, "monitor mode");
     }},
    {"log-level", Kind::kName, kAgreementCommands,
     [](Options&, const Arg& a) {
       LogLevel level = log_level();
       a.name(level, kLogLevelNames, "log level");
       set_log_level(level);
     }},
    {"trace-out", Kind::kPath, kRunSpecCommands,
     [](Options& o, const Arg& a) { o.spec.trace_out = a.value; }},
    {"metrics-json", Kind::kPath, kRunSpecCommands,
     [](Options& o, const Arg& a) { o.spec.metrics_out = a.value; }},
    {"perf-json", Kind::kPath, kRunSpecCommands,
     [](Options& o, const Arg& a) { o.spec.perf_out = a.value; }},
    // A sweep would have every seed truncate the one heartbeat file.
    {"stats-json", Kind::kPath, kRun | kServe,
     [](Options& o, const Arg& a) { o.spec.stats_out = a.value; }},
    {"stats-interval", Kind::kNumber, kRun | kServe,
     [](Options& o, const Arg& a) {
       a.number(o.spec.stats_interval_ms);
       if (o.spec.stats_interval_ms <= 0) usage("--stats-interval must be > 0 (ms)");
     }},
    {"seeds", Kind::kNumber, kSweep,
     [](Options& o, const Arg& a) { a.number(o.seeds); }},
    {"jobs", Kind::kNumber, kSweep,
     [](Options& o, const Arg& a) { a.number(o.jobs); }},
    {"sweep-json", Kind::kPath, kSweep,
     [](Options& o, const Arg& a) { o.sweep_json = a.value; }},
    {"party", Kind::kText, kServe,
     [](Options& o, const Arg& a) {
       for (const auto& token : split_commas(a.value)) {
         o.local_parties.push_back(options::number<PartyId>(a.key, token, &usage));
       }
     }},
    {"peers", Kind::kText, kServe,
     [](Options& o, const Arg& a) { o.peers = split_commas(a.value); }},
    {"listen", Kind::kText, kServe,
     [](Options& o, const Arg& a) { o.listen = a.value; }},
    {"instances", Kind::kNumber, kBench,
     [](Options& o, const Arg& a) { a.number(o.instances); }},
    {"interarrival", Kind::kNumber, kBench,
     [](Options& o, const Arg& a) { a.number(o.interarrival); }},
    {"linger", Kind::kNumber, kBench,
     [](Options& o, const Arg& a) { a.number(o.linger); }},
    {"json", Kind::kPath, kBench | kPerf,
     [](Options& o, const Arg& a) { o.bench_json = a.value; }},
    {"trace", Kind::kPath, kReport,
     [](Options& o, const Arg& a) { o.trace = a.value; }},
    {"merge", Kind::kText, kReport,
     [](Options& o, const Arg& a) { o.merge = a.value; }},
    {"merged-out", Kind::kPath, kReport,
     [](Options& o, const Arg& a) { o.merged_out = a.value; }},
    {"metrics", Kind::kPath, kReport,
     [](Options& o, const Arg& a) { o.metrics = a.value; }},
    {"out", Kind::kPath, kReport,
     [](Options& o, const Arg& a) { o.out = a.value; }},
    {"format", Kind::kName, kReport,
     [](Options& o, const Arg& a) {
       a.name(o.report.format, obs::kReportFormatNames, "format");
     }},
    {"title", Kind::kText, kReport,
     [](Options& o, const Arg& a) { o.report.title = a.value; }},
    {"baseline", Kind::kPath, kPerf,
     [](Options& o, const Arg& a) { o.baseline = a.value; }},
    {"budget", Kind::kNumber, kPerf,
     [](Options& o, const Arg& a) { a.number(o.budget); }},
    {"input", Kind::kPath, kPerf | kTop,
     [](Options& o, const Arg& a) { o.input = a.value; }},
    {"top", Kind::kNumber, kPerf,
     [](Options& o, const Arg& a) { a.number(o.top); }},
};

void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: hydra <run|sweep|serve|join|bench|report|perf|top|list> "
               "[--key value | --key=value ...]\n");
  static constexpr const char* kPlaceholder[] = {"N", "NAME", "PATH", "TEXT"};
  for (const auto& [command, label] : kCommandNames) {
    std::string text = std::string(label) + " keys:";
    std::size_t width = text.size();
    for (const auto& row : kOptions) {
      if ((row.commands & command) == 0) continue;
      const std::string item = " --" + std::string(row.key) + ' ' +
                               kPlaceholder[static_cast<int>(row.kind)];
      if (width + item.size() > 78) {
        text += "\n   ";
        width = 3;
      }
      text += item;
      width += item.size();
    }
    std::fprintf(stderr, "%s\n", text.c_str());
  }
  std::fprintf(stderr, "run `hydra list` for accepted values.\n");
  std::exit(2);
}

void list_values() {
  std::printf("protocol   : %s\n", names_of(kProtocolNames).c_str());
  std::printf("network    : %s\n", names_of(kNetworkNames).c_str());
  std::printf("adversary  : %s\n", names_of(kAdversaryNames).c_str());
  std::printf("workload   : %s\n", names_of(kWorkloadNames).c_str());
  std::printf("aggregation: %s\n", names_of(protocols::kAggregationNames).c_str());
  std::printf("log-level  : %s\n", names_of(kLogLevelNames).c_str());
  std::printf("monitors   : %s\n", names_of(obs::kMonitorModeNames).c_str());
  std::printf("faults     : dup(p=P[,skew=T][,from=I][,to=I]) "
              "reorder(p=P[,skew=T][,from=I][,to=I]) "
              "crash(party=I,at=T[,until=T]) "
              "partition(group=I.J...,from=T,until=T), ';'-separated\n");
  std::printf("backend    : %s\n", joined(backend_names()).c_str());
  std::printf("domain     : %s\n", hydra::domain::known_names().c_str());
  std::printf("format     : %s (hydra report)\n",
              names_of(obs::kReportFormatNames).c_str());
}

/// The options of `command`, read from argv[first, argc) through kOptions.
Options parse(Command command, int argc, char** argv, int first) {
  // The library default is kOff; the CLI surfaces errors unless silenced,
  // so e.g. an unwritable --trace-out path never fails without a message.
  if ((command & kAgreementCommands) != 0) set_log_level(LogLevel::kError);
  Options opts;
  for (const auto& [key, value] : options::parse_kv(argc, argv, first, &usage)) {
    const auto row = std::find_if(std::begin(kOptions), std::end(kOptions),
                                  [&key](const Option& o) { return o.key == key; });
    if (row == std::end(kOptions) || (row->commands & command) == 0) {
      usage("unknown option --" + key);
    }
    row->set(opts, Arg{key, value});
    opts.given.insert(key);
  }
  return opts;
}

/// Fills the defaults that depend on other keys (a graph domain's dim and
/// minimum eps), then rejects a spec that cannot run as a usage error.
void check_spec(Options& opts) {
  auto& p = opts.spec.params;
  if (const auto* dom = hydra::domain::find(opts.spec.domain)) {
    if (const auto rd = dom->required_dim(); rd && opts.given.count("dim") == 0) {
      p.dim = *rd;
    }
    if (opts.given.count("eps") == 0) p.eps = std::max(p.eps, dom->min_eps());
  }
  if (const std::string error = spec_error(opts.spec); !error.empty()) usage(error);
}

/// Expands a comma-separated list of paths and/or glob patterns into sorted
/// deduplicated paths. A token that matches nothing is kept literally so the
/// caller's open() produces a file-name-specific error instead of a silent
/// no-op on a typo.
std::vector<std::string> expand_inputs(const std::string& patterns) {
  std::vector<std::string> out;
  for (const auto& token : split_commas(patterns)) {
    if (token.empty()) continue;
    glob_t g{};
    if (::glob(token.c_str(), 0, nullptr, &g) == 0) {
      for (std::size_t i = 0; i < g.gl_pathc; ++i) out.emplace_back(g.gl_pathv[i]);
    } else {
      out.push_back(token);
    }
    ::globfree(&g);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// SIGTERM/SIGINT in serve/join: flush every registered sink (the lock-free
/// flush registry in obs/trace.cpp exists for exactly this handler), then
/// _exit — worker threads are mid-run, so running static destructors under
/// them would race. The partial trace stays valid JSONL (line-buffered, so
/// no torn lines) and merges with the surviving processes' traces; the
/// missing `end` marker is how the merge knows this process was killed.
extern "C" void flush_and_exit(int /*signal*/) {
  obs::flush_all_sinks();
  std::_Exit(130);
}

int cmd_run(const Options& opts) {
  const auto result = execute(opts.spec);
  Table table({"metric", "value"});
  table.row({"protocol", to_string(opts.spec.protocol)});
  table.row({"network", to_string(opts.spec.network)});
  table.row({"adversary", to_string(opts.spec.adversary) + " x" +
                              std::to_string(opts.spec.corruptions)});
  table.row({"live", fmt_ok(result.verdict.live)});
  table.row({"valid", fmt_ok(result.verdict.valid)});
  table.row({"agree", fmt_ok(result.verdict.agreed)});
  table.row({"output diameter", fmt(result.verdict.output_diameter)});
  table.row({"input diameter", fmt(result.input_diameter)});
  table.row({"rounds (Delta)", fmt(result.rounds)});
  table.row({"messages", fmt(result.messages)});
  table.row({"bytes", fmt(result.bytes)});
  table.row({"T estimates", fmt(result.min_estimate) + ".." + fmt(result.max_estimate)});
  table.row({"max msgs by one party", fmt(result.max_sent_by_party)});
  table.row({"safe-area fallbacks", fmt(result.safe_area_fallbacks)});
  // Only non-default backends/domains get extra rows: the default table is
  // part of the byte-identity contract for recorded runs.
  if (opts.spec.domain != "euclid") table.row({"domain", opts.spec.domain});
  if (opts.spec.backend != "sim") {
    table.row({"backend", opts.spec.backend});
    table.row({"wall clock (ms)", std::to_string(result.wall_ms)});
    if (result.timed_out) {
      table.row({"timed out", result.timeout_detail.empty()
                                  ? "YES"
                                  : "YES: " + result.timeout_detail});
    }
    if (opts.spec.backend == "tcp" || opts.spec.backend == "uds") {
      // Hardened-ingress counters: nonzero means a peer sent frames that
      // failed the authenticated-sender or decode checks.
      table.row({"frames auth-dropped", fmt(result.frames_auth_dropped)});
      table.row({"frames decode-dropped", fmt(result.frames_decode_dropped)});
    }
  }
  if (!opts.spec.faults.empty()) {
    table.row({"faults", opts.spec.faults});
    table.row({"fault drops", fmt(result.fault_drops)});
    table.row({"fault dups", fmt(result.fault_dups)});
    table.row({"fault delays", fmt(result.fault_delays)});
  }
  if (opts.spec.monitors != obs::MonitorMode::kOff) {
    table.row({"monitors", obs::to_string(opts.spec.monitors)});
    table.row({"monitor violations", fmt(result.monitor_violations)});
    if (result.monitor_aborted) table.row({"monitor abort", "STRICT ABORT"});
  }
  table.print();
  if (result.monitor_violations > 0) {
    std::printf("\ninvariant violations:\n");
    for (const auto& v : result.violations) {
      std::printf("  t=%lld party=%u it=%u cause=%llu [%s] %s\n",
                  static_cast<long long>(v.at), v.party, v.iteration,
                  static_cast<unsigned long long>(v.cause), v.monitor.c_str(),
                  v.detail.c_str());
    }
  }
  return result.verdict.d_aa() && result.monitor_violations == 0 ? 0 : 1;
}

/// serve/join: host --party over real sockets, peers named by --peers. One
/// spec, many processes — each judges (and exits by) its LOCAL parties only.
int cmd_serve(Options opts) {
  auto& spec = opts.spec;
  if (opts.local_parties.empty()) usage("serve/join requires --party I[,J...]");
  if (opts.peers.empty()) usage("serve/join requires --peers A0,...,A(n-1)");
  if (opts.given.count("n") > 0 && opts.peers.size() != spec.params.n) {
    usage("--peers must list exactly n endpoints (or omit --n)");
  }
  spec.params.n = opts.peers.size();
  if (opts.given.count("backend") == 0) spec.backend = "tcp";
  if (spec.backend != "tcp" && spec.backend != "uds") {
    usage("serve/join requires a socket backend (tcp or uds)");
  }
  spec.socket_local = opts.local_parties;
  check_spec(opts);
  if (!opts.listen.empty()) {
    if (opts.local_parties.size() != 1) {
      usage("--listen needs exactly one --party (it overrides one endpoint)");
    }
    opts.peers[opts.local_parties.front()] = opts.listen;
  }
  if (spec.backend == "uds") {
    // Parse-time validation: a path past the sockaddr_un::sun_path limit
    // would otherwise die much later in an inscrutable bind/connect failure.
    for (const auto& endpoint : opts.peers) {
      const std::string error = transport::validate_uds_endpoint(endpoint);
      if (!error.empty()) usage(error);
    }
  }
  spec.socket_endpoints = opts.peers;
  std::signal(SIGTERM, &flush_and_exit);
  std::signal(SIGINT, &flush_and_exit);
  return cmd_run(opts);
}

/// bench serve: sustain open-loop multi-instance load on a SOCKET backend in
/// one process (every non-self message crosses the OS) and report
/// instances/sec + decision-latency percentiles, optionally as a
/// hydra-bench-v1 JSON document (--json).
int cmd_bench_serve(Options opts) {
  if (opts.given.count("backend") == 0) opts.spec.backend = "uds";
  if (opts.spec.backend != "tcp" && opts.spec.backend != "uds") {
    usage("bench serve sustains load on a socket backend (tcp or uds)");
  }
  if (opts.instances == 0) usage("--instances must be >= 1");
  if (opts.interarrival < 0) usage("--interarrival must be >= 0 (ticks)");
  // What run_serve executes: every party slot honest.
  opts.spec.adversary = Adversary::kNone;
  opts.spec.corruptions = 0;
  check_spec(opts);
  serve::ServeSpec spec;
  spec.params = opts.spec.params;
  spec.workload = opts.spec.workload;
  spec.workload_scale = opts.spec.workload_scale;
  spec.network = opts.spec.network;
  spec.seed = opts.spec.seed;
  spec.monitors = opts.spec.monitors;
  spec.backend = opts.spec.backend;
  spec.instances = opts.instances;
  spec.interarrival = opts.interarrival;
  spec.linger = opts.linger;
  spec.us_per_tick = opts.spec.us_per_tick;
  spec.timeout_ms = opts.spec.timeout_ms;

  const auto result = serve::run_serve(spec);
  const double wall_s = static_cast<double>(result.wall_ms) / 1000.0;
  const double rate =
      wall_s > 0.0 ? static_cast<double>(result.decided) / wall_s : 0.0;
  const Time p50 = serve::latency_percentile(result, 50.0);
  const Time p99 = serve::latency_percentile(result, 99.0);
  std::printf("bench serve: backend=%s n=%zu instances=%u decided=%u pass=%s\n",
              spec.backend.c_str(), spec.params.n, spec.instances,
              result.decided, result.all_pass ? "yes" : "no");
  std::printf("  instances/sec     %.1f  (wall %.2fs)\n", rate, wall_s);
  std::printf("  decision latency  p50 %lld  p99 %lld  ticks\n",
              static_cast<long long>(p50), static_cast<long long>(p99));
  std::printf("  wire              %llu msgs  %llu bytes  frames/flush %.1f\n",
              static_cast<unsigned long long>(result.messages),
              static_cast<unsigned long long>(result.bytes),
              result.transport_health.flushes > 0
                  ? static_cast<double>(result.transport_health.frames_sent) /
                        static_cast<double>(result.transport_health.flushes)
                  : 0.0);
  std::printf("  slab              slots %zu  live-peak %zu  late-drops %llu\n",
              result.slots_allocated, result.live_peak,
              static_cast<unsigned long long>(result.late_dropped));
  if (spec.monitors != obs::MonitorMode::kOff) {
    std::printf("  monitors          %llu violations\n",
                static_cast<unsigned long long>(result.monitor_violations));
  }

  if (!opts.bench_json.empty()) {
    const double us_per_instance =
        result.decided > 0 ? static_cast<double>(result.wall_ms) * 1000.0 /
                                 static_cast<double>(result.decided)
                           : 0.0;
    const std::vector<BenchMetric> metrics = {
        {"serve." + spec.backend + ".us_per_instance", "us/instance",
         us_per_instance, result.decided},
        {"serve." + spec.backend + ".decision_p99_ticks", "ticks",
         static_cast<double>(p99), result.decided},
    };
    if (!write_bench_json(opts.bench_json, "bench_serve", metrics)) return 1;
  }
  return result.decided == spec.instances && result.all_pass &&
                 result.monitor_violations == 0
             ? 0
             : 1;
}

/// "t.jsonl" -> "t.s7.jsonl"; extensionless paths get the suffix appended.
std::string with_seed_suffix(const std::string& path, std::uint64_t seed) {
  if (path.empty()) return path;
  const std::string suffix = ".s" + std::to_string(seed);
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

int cmd_sweep(const Options& opts) {
  // One spec per seed; per-seed output paths keep runs from clobbering each
  // other whatever order the pool finishes them in.
  std::vector<RunSpec> grid;
  grid.reserve(opts.seeds);
  for (std::uint64_t s = 0; s < opts.seeds; ++s) {
    RunSpec spec = opts.spec;
    spec.seed = s + 1;
    spec.trace_out = with_seed_suffix(opts.spec.trace_out, spec.seed);
    spec.metrics_out = with_seed_suffix(opts.spec.metrics_out, spec.seed);
    spec.perf_out = with_seed_suffix(opts.spec.perf_out, spec.seed);
    grid.push_back(std::move(spec));
  }

  const auto results = run_sweep(grid, opts.jobs);

  std::size_t pass = 0;
  std::vector<std::uint64_t> failures;
  std::uint64_t monitor_violations = 0;
  Stats rounds;
  Stats messages;
  Stats diameters;
  Stats estimates;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    if (result.verdict.d_aa()) {
      ++pass;
    } else {
      failures.push_back(grid[i].seed);
    }
    monitor_violations += result.monitor_violations;
    rounds.add(result.rounds);
    messages.add(static_cast<double>(result.messages));
    diameters.add(result.verdict.output_diameter);
    estimates.add(static_cast<double>(result.min_estimate));
  }
  std::printf("%zu/%llu runs satisfied D-AA (%zu jobs)\n\n", pass,
              static_cast<unsigned long long>(opts.seeds),
              resolve_jobs(opts.jobs));

  Table table({"metric", "mean", "min", "p50", "p95", "max"});
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const auto row = [&](const char* name, const Stats& st) {
    table.row({name, fmt(st.mean()), fmt(st.min()),
               fmt(st.percentile(50).value_or(nan)),
               fmt(st.percentile(95).value_or(nan)), fmt(st.max())});
  };
  row("rounds (Delta)", rounds);
  row("messages", messages);
  row("output diameter", diameters);
  row("T estimate (min)", estimates);
  table.print();

  if (!failures.empty()) {
    std::printf("\nfailing seeds:");
    for (auto s : failures) std::printf(" %llu", static_cast<unsigned long long>(s));
    std::printf("\n");
  }
  if (monitor_violations > 0) {
    std::printf("\n%llu invariant-monitor violation(s) across the sweep\n",
                static_cast<unsigned long long>(monitor_violations));
  }
  if (!opts.sweep_json.empty() &&
      !write_sweep_summary_json(opts.sweep_json, grid, results, opts.jobs)) {
    return 1;
  }
  // Exit-code contract (README): any D-AA failure OR any recorded monitor
  // violation makes the sweep exit non-zero, so scripted sweeps can't
  // silently pass.
  return failures.empty() && monitor_violations == 0 ? 0 : 1;
}

int cmd_report(const Options& opts) {
  if (opts.trace.empty() && opts.merge.empty()) {
    usage("report requires --trace PATH or --merge GLOB");
  }
  if (!opts.trace.empty() && !opts.merge.empty()) {
    usage("--trace and --merge are mutually exclusive");
  }

  // --merge: stitch the per-process traces into one timeline (re-evaluating
  // the global monitors when every process completed) and report on THAT.
  // The merged trace replaces the --trace input; the violation gate below
  // makes `hydra report --merge ...` usable directly as a CI check.
  std::string merged;
  std::uint64_t merge_violations = 0;
  if (!opts.merge.empty()) {
    const auto paths = expand_inputs(opts.merge);
    if (paths.empty()) {
      std::fprintf(stderr, "error: --merge '%s' names no files\n", opts.merge.c_str());
      return 1;
    }
    const auto result = obs::merge_traces(paths);
    if (!result.ok()) {
      std::fprintf(stderr, "error: trace merge failed: %s\n",
                   result.error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "merged %zu trace(s): %zu events, %zu orphan deliver(s), "
                 "%s, %llu violation(s)\n",
                 result.files, result.events, result.orphans,
                 result.reevaluated ? "global monitors re-evaluated"
                                    : "incomplete (no re-evaluation)",
                 static_cast<unsigned long long>(result.violations));
    if (!opts.merged_out.empty()) {
      std::ofstream f(opts.merged_out);
      if (!f) {
        std::fprintf(stderr, "error: cannot write %s\n", opts.merged_out.c_str());
        return 1;
      }
      f << result.merged;
    }
    merged = result.merged;
    merge_violations = result.violations;
  }
  const std::string& source_name = opts.merge.empty() ? opts.trace : opts.merge;

  std::ifstream trace_file;
  std::istringstream merged_stream(merged);
  if (!opts.trace.empty()) {
    trace_file.open(opts.trace);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot read trace %s\n", opts.trace.c_str());
      return 1;
    }
  }
  std::istream& trace = !opts.trace.empty()
                            ? static_cast<std::istream&>(trace_file)
                            : static_cast<std::istream&>(merged_stream);

  std::string metrics;
  if (!opts.metrics.empty()) {
    std::ifstream in(opts.metrics);
    if (!in) {
      std::fprintf(stderr, "error: cannot read metrics %s\n", opts.metrics.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    metrics = buffer.str();
  }

  const auto render = [&](std::ostream& out) {
    return obs::render_report(trace, metrics, opts.report, out);
  };
  std::size_t events = 0;
  if (!opts.out.empty()) {
    std::ofstream out(opts.out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opts.out.c_str());
      return 1;
    }
    events = render(out);
  } else {
    events = render(std::cout);
  }
  if (events == 0) {
    std::fprintf(stderr, "error: no trace events in %s\n", source_name.c_str());
    return 1;
  }
  // Merge mode gates on the GLOBAL verdict: re-evaluated violations (or the
  // surviving per-process ones when a process died) fail the command.
  if (merge_violations > 0) {
    std::fprintf(stderr, "error: %llu invariant violation(s) in merged trace\n",
                 static_cast<unsigned long long>(merge_violations));
    return 1;
  }
  return 0;
}

/// Folds `from` into the accumulated per-phase rows: counts and times sum,
/// min is the min of nonzero mins (0 = "no samples", not "instant"), max is
/// the max of maxes, and the log2 latency buckets add element-wise (their
/// bucket boundaries are position-fixed, so index i always means [2^i,
/// 2^(i+1)) whatever length each file trimmed its trailing zeros to).
void merge_phase_rows(std::map<std::string, harness::PhaseRow>& acc,
                      const std::vector<harness::PhaseRow>& from) {
  for (const auto& row : from) {
    auto& a = acc[row.name];
    if (a.name.empty()) {
      a = row;
      continue;
    }
    a.count += row.count;
    a.total_ns += row.total_ns;
    a.self_ns += row.self_ns;
    if (row.min_ns != 0) {
      a.min_ns = a.min_ns == 0 ? row.min_ns : std::min(a.min_ns, row.min_ns);
    }
    a.max_ns = std::max(a.max_ns, row.max_ns);
    if (a.buckets.size() < row.buckets.size()) {
      a.buckets.resize(row.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < row.buckets.size(); ++i) {
      a.buckets[i] += row.buckets[i];
    }
  }
}

int cmd_perf(const Options& opts) {
  // The two modes share the subcommand but no keys.
  const bool kernel_keys = opts.given.count("json") + opts.given.count("baseline") +
                               opts.given.count("budget") > 0;
  if (!opts.input.empty() && kernel_keys) {
    usage("--json, --baseline and --budget measure the kernels; drop them or --input");
  }
  if (opts.input.empty() && opts.given.count("top") > 0) {
    usage("--top ranks --input profiles; pass --input");
  }

  // Phase-profile mode: render --perf-json documents. Several files (a glob
  // or comma list, e.g. every process of a distributed run or every seed of
  // a sweep) merge into one attribution table.
  if (!opts.input.empty()) {
    const auto paths = expand_inputs(opts.input);
    if (paths.empty()) {
      std::fprintf(stderr, "error: --input '%s' names no files\n", opts.input.c_str());
      return 1;
    }
    std::map<std::string, harness::PhaseRow> acc;
    for (const auto& path : paths) {
      const auto rows = load_perf_json(path);
      if (!rows) {
        std::fprintf(stderr, "error: %s is not a hydra-perf-v1 document\n",
                     path.c_str());
        return 1;
      }
      merge_phase_rows(acc, *rows);
    }
    std::vector<harness::PhaseRow> merged;
    merged.reserve(acc.size());
    for (auto& [name, row] : acc) merged.push_back(std::move(row));
    if (paths.size() > 1) {
      std::printf("merged %zu phase profiles\n", paths.size());
    }
    std::fputs(render_phase_report(std::move(merged), opts.top).c_str(), stdout);
    return 0;
  }

  // Kernel mode: measure the geometry kernels on fixed inputs.
  const auto metrics = measure_geometry_kernels();
  Table table({"kernel", "unit", "value", "repetitions"});
  for (const auto& m : metrics) {
    table.row({m.name, m.unit, fmt(m.value), fmt(m.repetitions)});
  }
  table.print();

  if (!opts.bench_json.empty() &&
      !write_bench_json(opts.bench_json, "geometry", metrics)) {
    return 1;
  }
  if (!opts.baseline.empty()) {
    const auto baseline = load_bench_json(opts.baseline);
    if (!baseline) {
      std::fprintf(stderr, "error: %s is not a hydra-bench-v1 document\n",
                   opts.baseline.c_str());
      return 1;
    }
    std::vector<std::string> regressions;
    std::printf("\nvs %s (budget %+.0f%%):\n", opts.baseline.c_str(),
                100.0 * opts.budget);
    std::fputs(render_delta_table(metrics, baseline->metrics, opts.budget, &regressions)
                   .c_str(),
               stdout);
    if (!regressions.empty()) {
      std::printf("\nREGRESSION:");
      for (const auto& name : regressions) std::printf(" %s", name.c_str());
      std::printf("\n");
      return 1;
    }
  }
  return 0;
}

/// `hydra top --input stats.jsonl`: the newest hydra-stats-v1 heartbeat per
/// process (multi-process runs append to separate files, but merging them
/// with `cat` also works — lines are self-identifying via `proc`), plus
/// per-party progress from those newest lines. Reads a snapshot; re-run it
/// (or `watch hydra top ...`) to follow a live run.
int cmd_top(const Options& opts) {
  if (opts.input.empty()) usage("top requires --input STATS_JSONL");

  std::map<std::uint64_t, obs::JsonValue> latest;  ///< by proc tag (0 = untagged)
  std::uint64_t skipped = 0;
  for (const auto& path : expand_inputs(opts.input)) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto obj = obs::parse_json(line);
      if (!obj || (*obj)["schema"].text() != "hydra-stats-v1") {
        ++skipped;
        continue;
      }
      // Later lines supersede earlier ones per process; file order is
      // emission order within one process by construction.
      latest[(*obj)["proc"].as_u64()] = std::move(*obj);
    }
  }
  if (latest.empty()) {
    std::fprintf(stderr, "error: no hydra-stats-v1 heartbeats in %s%s\n",
                 opts.input.c_str(),
                 skipped > 0 ? " (lines present but not parseable)" : "");
    return 1;
  }

  Table procs({"proc", "uptime (s)", "msgs", "bytes", "dropped", "egress q",
               "mailbox q", "decided", "round", "state"});
  for (const auto& [proc, o] : latest) {
    const double ms = o["ms"].as_double();
    const std::uint64_t dropped =
        o["auth_dropped"].as_u64() + o["decode_dropped"].as_u64();
    procs.row({proc == 0 ? std::string("-") : std::to_string(proc),
               fmt(ms / 1000.0), fmt(o["messages"].as_u64()),
               fmt(o["bytes"].as_u64()), fmt(dropped),
               fmt(o["egress_depth"].as_u64()), fmt(o["mailbox_depth"].as_u64()),
               fmt(o["decided"].as_u64()), fmt(o["round"].as_u64()),
               o["final"].as_u64() != 0 ? "final" : "live"});
  }
  procs.print();

  Table parties({"party", "proc", "finished", "events", "round"});
  bool any_party = false;
  for (const auto& [proc, o] : latest) {
    // "parties":[[id,finished,events,round],...]
    for (const auto& entry : o["parties"].items()) {
      const auto numbers = entry.reals();
      if (numbers.size() < 4) continue;
      any_party = true;
      parties.row({fmt(numbers[0]),
                   proc == 0 ? std::string("-") : std::to_string(proc),
                   numbers[1] != 0.0 ? "yes" : "no", fmt(numbers[2]),
                   fmt(numbers[3])});
    }
  }
  if (any_party) {
    std::printf("\n");
    parties.print();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "list") {
    list_values();
    return 0;
  }
  if (command == "report") return cmd_report(parse(kReport, argc, argv, 2));
  if (command == "perf") return cmd_perf(parse(kPerf, argc, argv, 2));
  if (command == "top") return cmd_top(parse(kTop, argc, argv, 2));
  if (command == "bench") {
    if (argc < 3 || std::string(argv[2]) != "serve") {
      usage("bench requires a mode: hydra bench serve [--keys]");
    }
    return cmd_bench_serve(parse(kBench, argc, argv, 3));
  }
  if (command == "serve" || command == "join") {
    return cmd_serve(parse(kServe, argc, argv, 2));
  }
  if (command == "run" || command == "sweep") {
    auto opts = parse(command == "run" ? kRun : kSweep, argc, argv, 2);
    check_spec(opts);
    return command == "run" ? cmd_run(opts) : cmd_sweep(opts);
  }
  usage("unknown command");
}
