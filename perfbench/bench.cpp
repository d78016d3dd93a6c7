// hymem end-to-end benchmark: one named workload per process.
//
//   hymem_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans PATH]
//
// Workloads (the "why" of each is recorded in BENCHMARK.json):
//   table3-grid   12 Table III profiles x 8 policies at scale 64, shared
//                 seed, through runner::run_sweep on 2 workers with the
//                 science CSV written to memory. Generation runs inside
//                 every cell, as it does for bench_sweep.
//   replay-read   streamcluster + canneal at scale 16 under two-lru and
//                 clock-dwf; traces generated in set-up, replay timed.
//   replay-write  dedup + fluidanimate + vips at scale 4 under the same two
//                 policies; traces generated in set-up, replay timed.
//
// The benchmark only calls public entry points (synth::generate,
// trace::TraceCharacterizer, trace::PageIdInterner, sim::run_experiment,
// the RunResult model accessors, runner::run_sweep and
// SweepResults::write_csv) and times each layer from outside.
//
// Host time is what the simulator takes; simulated counts (faults, hits,
// migrations, NVM writes) describe the modelled memory, which starts warm:
// statistics cover only the measured trace, after the warmup trace, exactly
// as sim::run_workload counts them.
//
// --trace 0 repeats the untraced timed phase until --seconds have elapsed
// and reports the end-to-end metrics (medians over repetitions).
// --trace 1 alternates an untraced and a traced repetition until --seconds
// have elapsed and reports the per-layer metrics. The traced repetition
// runs the same cells on the same worker count but calls the layers one by
// one, recording a span per call; its per-cell sim::csv_fields rows must
// equal the untraced rows.
//
// Output: one JSON document on stdout (manifest, per-cell check results,
// metrics). perfbench/run.py turns it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "model/endurance_model.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/results_io.hpp"
#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/interner.hpp"
#include "trace/trace_stats.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

using namespace hymem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  return quantile(std::move(xs), 0.5);
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::string> profiles;  ///< Empty: every Table III profile.
  std::vector<std::string> policies;
  std::uint64_t scale = 64;
  unsigned workers = 1;
  /// table3-grid generates inside every cell (run_sweep does); the replay
  /// workloads generate their traces once in set-up.
  bool generate_in_cells = false;
};

Workload find_workload(const std::string& name) {
  const std::vector<std::string> replay_policies = {"two-lru", "clock-dwf"};
  if (name == "table3-grid") {
    return {name,
            {},
            {"dram-only", "nvm-only", "static-partition", "dram-cache",
             "rank-mq", "clock-dwf", "two-lru", "two-lru-adaptive"},
            64,
            2,
            true};
  }
  if (name == "replay-read") {
    return {name, {"streamcluster", "canneal"}, replay_policies, 16, 1, false};
  }
  if (name == "replay-write") {
    return {name, {"dedup", "fluidanimate", "vips"}, replay_policies, 4, 1,
            false};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (table3-grid, replay-read, replay-write)");
}

runner::SweepSpec make_spec(const Workload& w, std::uint64_t seed) {
  runner::SweepSpec spec;
  if (w.profiles.empty()) {
    const auto all = synth::parsec_profiles();
    spec.workloads.assign(all.begin(), all.end());
  } else {
    for (const auto& p : w.profiles) {
      spec.workloads.push_back(synth::parsec_profile(p));
    }
  }
  spec.policies = w.policies;
  spec.scale = w.scale;
  spec.base_seed = seed;
  spec.seed_mode = runner::SeedMode::kShared;
  return spec;
}

// --- Spans -------------------------------------------------------------------

/// One timed call. `parent` indexes the same SpanLog (-1: the repetition's
/// root); `cell` is the grid index (-1: not tied to a cell).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t cell = -1;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Spans of one cell (or of set-up), appended by a single thread. Kept in
/// memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::int32_t open(const char* name, std::int32_t parent, std::int32_t cell) {
    spans_.push_back(Span{name, now_ns(), 0, parent, cell});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Calls `fn` and returns its result, recorded as one span when `log` is set.
template <typename Fn>
auto timed(SpanLog* log, const char* name, std::int32_t parent,
           std::int32_t cell, Fn&& fn) {
  if (log == nullptr) return fn();
  const std::int32_t id = log->open(name, parent, cell);
  auto out = fn();
  log->close(id);
  return out;
}

// --- Traces ------------------------------------------------------------------

struct TracePair {
  trace::Trace warmup;
  trace::Trace measured;
  double roi_seconds = 0.0;
};

/// (profile, scale, seed, page size, line size): a repeat of a key is a
/// generate call a trace cache would have saved.
using GenerateKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t>;

/// Generates a cell's two traces exactly as sim::run_workload does: the
/// warmup trace covers the full footprint, the measured trace (seed + 1)
/// draws from the same distribution without the forced cold touches.
TracePair generate_pair(const synth::WorkloadProfile& profile,
                        std::uint64_t scale,
                        const sim::ExperimentConfig& config,
                        std::uint64_t seed, SpanLog* log, std::int32_t parent,
                        std::int32_t cell) {
  const synth::WorkloadProfile scaled = profile.scaled(scale);
  synth::GeneratorOptions options;
  options.page_size = config.page_size;
  options.line_size = config.access_granularity;
  options.seed = seed;
  synth::GeneratorOptions body = options;
  body.ensure_full_footprint = false;
  body.seed = seed + 1;
  TracePair pair;
  pair.roi_seconds = scaled.roi_seconds;
  pair.warmup = timed(log, "synth.generate", parent, cell,
                      [&] { return synth::generate(scaled, options); });
  pair.measured = timed(log, "synth.generate", parent, cell,
                        [&] { return synth::generate(scaled, body); });
  return pair;
}

std::uint64_t expected_accesses(const synth::WorkloadProfile& profile,
                                std::uint64_t scale) {
  const auto scaled = profile.scaled(scale);
  return scaled.reads + scaled.writes;
}

// --- Checks ------------------------------------------------------------------

/// Empty when the cell's output is plausible for any seed; otherwise why not.
std::string check_cell(const runner::JobResult& job, std::uint64_t scale) {
  if (!job.ok) return "cell failed: " + job.error;
  const auto& r = job.result;
  const auto& c = r.counts;
  if (c.accesses != r.accesses) return "counts.accesses != accesses";
  if (c.hits() + c.page_faults != c.accesses) return "hits + faults != accesses";
  if (c.fills_to_dram + c.fills_to_nvm != c.page_faults) {
    return "fills != faults";
  }
  if (r.accesses != expected_accesses(job.job.workload, scale)) {
    return "accesses != scaled Table III reads + writes";
  }
  return {};
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  const auto res = std::to_chars(buf, buf + 16, v, 16);
  std::string out(buf, res.ptr);
  return std::string(16 - out.size(), '0') + out;
}

/// Splits the science CSV into lines (header first).
std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// --- One repetition ----------------------------------------------------------

struct CellRecord {
  std::string digest;  ///< FNV-1a of the cell's science-CSV row.
  std::vector<std::string> fields;  ///< sim::csv_fields of the result.
  std::string problem;  ///< Empty when every check passed.
};

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t accesses_replayed = 0;  ///< Warmup + measured, all cells.
  runner::SweepResults sweep;           ///< Slots in grid order.
  std::vector<CellRecord> cells;
  std::string csv_digest;
  // Traced repetitions only.
  std::vector<std::vector<Span>> spans;  ///< Per cell, plus a rep-level log.
  Span root;
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

std::uint64_t replayed_accesses(const runner::JobResult& job,
                                std::uint64_t scale) {
  // One warmup pass over the warmup trace (same size as the measured trace:
  // the generator hits the Table III read/write totals exactly) plus the
  // measured pass.
  const auto passes = std::max(1u, job.job.config.warmup_passes) + 1;
  return passes * expected_accesses(job.job.workload, scale);
}

/// Writes the science CSV of a finished sweep to memory and fills the
/// per-cell digests, fields and checks.
void finish_rep(Rep& rep, std::uint64_t scale) {
  std::ostringstream csv;
  rep.sweep.write_csv(csv);
  const std::string text = csv.str();
  rep.csv_digest = hex64(fnv1a(text));
  const auto lines = csv_lines(text);
  rep.cells.resize(rep.sweep.jobs.size());
  for (std::size_t i = 0; i < rep.sweep.jobs.size(); ++i) {
    const auto& job = rep.sweep.jobs[i];
    auto& cell = rep.cells[i];
    cell.problem = check_cell(job, scale);
    if (job.ok) cell.fields = sim::csv_fields(job.result);
    cell.digest = i + 1 < lines.size() ? hex64(fnv1a(lines[i + 1])) : "missing";
    rep.accesses_replayed += replayed_accesses(job, scale);
  }
}

/// The cell slots of a sweep, without running anything.
runner::SweepResults empty_sweep(const runner::SweepSpec& spec,
                                 unsigned workers) {
  runner::SweepResults sweep;
  for (auto& job : runner::expand_grid(spec)) {
    runner::JobResult slot;
    slot.job = std::move(job);
    sweep.jobs.push_back(std::move(slot));
  }
  sweep.workers = workers;
  return sweep;
}

/// Traces of each profile, generated in set-up (replay workloads only).
using TraceSet = std::map<std::string, TracePair>;

/// Untraced repetition: run_sweep for table3-grid, sim::run_experiment per
/// cell over the set-up traces for the replay workloads.
Rep run_untraced(const Workload& w, const runner::SweepSpec& spec,
                 const runner::SweepResults& cells, const TraceSet& traces) {
  Rep rep;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (w.generate_in_cells) {
    runner::SweepOptions options;
    options.jobs = w.workers;
    rep.sweep = runner::run_sweep(spec, options);
  } else {
    rep.sweep = cells;
    for (auto& slot : rep.sweep.jobs) {
      const auto start = Clock::now();
      const auto& pair = traces.at(slot.job.workload.name);
      try {
        slot.result = sim::run_experiment(pair.warmup, pair.measured,
                                          pair.roi_seconds, slot.job.config);
        slot.ok = true;
      } catch (const std::exception& e) {
        slot.error = e.what();
      }
      slot.wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    }
    rep.sweep.wall_s = seconds_between(t0, Clock::now());
  }
  finish_rep(rep, spec.scale);
  rep.wall_s = seconds_between(t0, Clock::now());
  rep.cpu_s = cpu_seconds() - cpu0;
  return rep;
}

/// Keeps a probe's result observable so the call cannot be elided.
std::uint64_t g_probe_sink = 0;

/// Traced repetition: the same cells on the same worker count, each layer
/// called on its own and recorded as a span.
Rep run_traced(const Workload& w, const runner::SweepSpec& spec,
               const runner::SweepResults& cells, const TraceSet& traces,
               Clock::time_point epoch) {
  Rep rep;
  rep.sweep = cells;
  const std::size_t n = rep.sweep.jobs.size();
  std::vector<SpanLog> logs(n + 1, SpanLog(epoch));
  std::vector<std::uint64_t> sinks(n, 0);

  const auto run_cell = [&](std::size_t i) {
    auto& slot = rep.sweep.jobs[i];
    auto& log = logs[i];
    const auto cell = static_cast<std::int32_t>(i);
    const auto start = Clock::now();
    const std::int32_t root = log.open("cell", -1, cell);
    try {
      const TracePair* pair = nullptr;
      TracePair generated;
      if (w.generate_in_cells) {
        generated = generate_pair(slot.job.workload, spec.scale,
                                  slot.job.config, slot.job.seed, &log, root,
                                  cell);
        pair = &generated;
      } else {
        pair = &traces.at(slot.job.workload.name);
      }
      const auto page_size = slot.job.config.page_size;
      // Probes: the two pieces of trace work run_experiment does inside,
      // each repeated here by its own call so it can be timed.
      sinks[i] += timed(&log, "trace.footprint", root, cell, [&] {
        trace::TraceCharacterizer characterizer(page_size);
        characterizer.observe(pair->warmup);
        return characterizer.stats().distinct_pages;
      });
      sinks[i] += timed(&log, "trace.intern", root, cell, [&] {
        const trace::PageIdInterner warm(pair->warmup, page_size);
        const trace::PageIdInterner measured(pair->measured, page_size);
        return warm.pages().size() + measured.pages().size();
      });
      slot.result = timed(&log, "sim.run_experiment", root, cell, [&] {
        return sim::run_experiment(pair->warmup, pair->measured,
                                   pair->roi_seconds, slot.job.config);
      });
      slot.ok = true;
      const double model_sum = timed(&log, "model.eval", root, cell, [&] {
        return slot.result.amat().total() + slot.result.appr().total() +
               static_cast<double>(slot.result.nvm_writes().total());
      });
      sinks[i] += static_cast<std::uint64_t>(std::isfinite(model_sum));
      sinks[i] += timed(&log, "sim.export", root, cell, [&] {
        return sim::csv_fields(slot.result).size();
      });
    } catch (const std::exception& e) {
      slot.error = e.what();
    }
    log.close(root);
    slot.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (w.workers > 1) {
    runner::ThreadPool pool(w.workers);
    for (std::size_t i = 0; i < n; ++i) pool.submit([&run_cell, i] { run_cell(i); });
    pool.wait_idle();
  } else {
    for (std::size_t i = 0; i < n; ++i) run_cell(i);
  }
  rep.sweep.wall_s = seconds_between(t0, Clock::now());
  auto& rep_log = logs[n];
  const std::int32_t export_span = rep_log.open("sim.export", -1, -1);
  finish_rep(rep, spec.scale);
  rep_log.close(export_span);
  const auto t1 = Clock::now();
  rep.wall_s = seconds_between(t0, t1);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.root = Span{"rep",
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch).count(),
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - epoch).count(),
                  -1, -1};
  for (auto& log : logs) rep.spans.push_back(log.spans());
  for (const auto s : sinks) g_probe_sink += s;
  return rep;
}

// --- Set-up ------------------------------------------------------------------

struct Setup {
  runner::SweepSpec spec;
  runner::SweepResults cells;  ///< Expanded grid, nothing run yet.
  TraceSet traces;
};

/// Builds and expands the grid and, for replay workloads, generates every
/// profile's traces. `log` (optional) records the generate calls as spans.
Setup run_setup(const Workload& w, std::uint64_t seed, SpanLog* log) {
  Setup s;
  s.spec = make_spec(w, seed);
  s.cells = empty_sweep(s.spec, w.workers);
  if (!w.generate_in_cells) {
    const sim::ExperimentConfig config;  // Page and line size of every cell.
    const std::int32_t root = log ? log->open("setup", -1, -1) : -1;
    for (const auto& profile : s.spec.workloads) {
      s.traces.emplace(profile.name,
                       generate_pair(profile, s.spec.scale, config, seed, log,
                                     root, -1));
    }
    if (log) log->close(root);
  }
  return s;
}

// --- Memory ------------------------------------------------------------------

/// VmHWM in bytes, 0 when unavailable.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (Linux: "5" into clear_refs).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// --- Metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer totals of one traced repetition (host seconds unless noted).
struct LayerSample {
  double generate_s = 0, footprint_s = 0, intern_s = 0, run_experiment_s = 0,
         model_s = 0, export_s = 0, cell_s = 0, leaf_s = 0;
  std::uint64_t generate_calls = 0, redundant = 0;
};

void add_spans(LayerSample& s, const std::vector<Span>& spans,
               std::set<GenerateKey>* seen,
               const std::vector<GenerateKey>& keys) {
  std::size_t gen_index = 0;
  for (const auto& span : spans) {
    const std::string name = span.name;
    const double d = span.seconds();
    const bool leaf = name != "cell" && name != "setup";
    if (leaf) s.leaf_s += d;
    if (name == "cell") s.cell_s += d;
    if (name == "synth.generate") {
      s.generate_s += d;
      ++s.generate_calls;
      if (gen_index < keys.size() && !seen->insert(keys[gen_index]).second) {
        ++s.redundant;
      }
      ++gen_index;
    } else if (name == "trace.footprint") {
      s.footprint_s += d;
    } else if (name == "trace.intern") {
      s.intern_s += d;
    } else if (name == "sim.run_experiment") {
      s.run_experiment_s += d;
    } else if (name == "model.eval") {
      s.model_s += d;
    } else if (name == "sim.export") {
      s.export_s += d;
    }
  }
}

/// The generate keys a cell (or a set-up profile) produces, in call order.
std::vector<GenerateKey> pair_keys(const synth::WorkloadProfile& profile,
                                   std::uint64_t scale, std::uint64_t seed) {
  const sim::ExperimentConfig config;
  return {{profile.name, scale, seed, config.page_size,
           config.access_granularity},
          {profile.name, scale, seed + 1, config.page_size,
           config.access_granularity}};
}

/// G-mean over workloads of metric(two-lru) / metric(baseline); workloads
/// where either side is 0 are left out (a ratio of 0 has no logarithm).
double gap_gmean(const std::map<std::string, std::map<std::string, double>>& by,
                 const std::string& baseline) {
  std::vector<double> ratios;
  for (const auto& [workload, policies] : by) {
    const auto ours = policies.find("two-lru");
    const auto base = policies.find(baseline);
    if (ours == policies.end() || base == policies.end()) continue;
    if (ours->second > 0 && base->second > 0) {
      ratios.push_back(ours->second / base->second);
    }
  }
  return ratios.empty() ? 0.0 : geometric_mean(ratios);
}

// --- Output ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    const auto parse_u64 = [&](std::uint64_t& out) {
      const auto res = std::from_chars(value.data(), value.data() + value.size(), out);
      if (res.ec != std::errc() || res.ptr != value.data() + value.size()) {
        throw std::invalid_argument("bad value for " + flag + ": " + value);
      }
    };
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      parse_u64(a.seed);
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      parse_u64(s);
      if (s == 0) throw std::invalid_argument("--seconds must be >= 1");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

void write_spans(const std::string& path, const std::vector<Rep>& reps,
                 const std::vector<Span>& setup_spans) {
  std::ofstream out(path);
  out << "{\"spans\": [";
  std::int64_t next_id = 0;
  bool first = true;
  const auto emit = [&](const Span& s, std::int64_t id, std::int64_t parent) {
    out << (first ? "\n" : ",\n") << "{\"id\": " << id << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << parent
        << ", \"cell\": " << s.cell << "}";
    first = false;
  };
  const auto emit_log = [&](const std::vector<Span>& spans,
                            std::int64_t root_id) {
    const std::int64_t base = next_id;
    for (const auto& s : spans) {
      emit(s, next_id++, s.parent < 0 ? root_id : base + s.parent);
    }
  };
  emit_log(setup_spans, -1);
  for (const auto& rep : reps) {
    const std::int64_t root_id = next_id++;
    emit(rep.root, root_id, -1);
    for (const auto& log : rep.spans) emit_log(log, root_id);
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse(argc, argv);
    w = find_workload(args.workload);
  } catch (const std::exception& e) {
    std::cerr << "hymem_perfbench: " << e.what() << "\n";
    return 2;
  }
  const auto epoch = Clock::now();

  // Set-up, in rounds. A round repeats the set-up until it has taken at
  // least 10 ms (once for the replay workloads; thousands of times for
  // table3-grid, whose set-up only builds and expands the grid) and yields the mean time
  // of one set-up. At least 5 rounds and 0.5 s of rounds run (host timing
  // noise here is about 10% on a 0.2 s scale); the median round is reported
  // and the last set-up is kept. In a traced run the set-ups record their
  // generate calls.
  std::vector<double> setup_times;
  std::vector<LayerSample> setup_layers;
  std::vector<Span> setup_spans;
  Setup setup;
  std::uint64_t setup_redundant = 0, setup_calls = 0;
  {
    const auto start = Clock::now();
    while (setup_times.size() < 5 ||
           seconds_between(start, Clock::now()) < 0.5) {
      SpanLog log(epoch);
      std::uint64_t iterations = 0;
      const auto t0 = Clock::now();
      do {
        setup.traces.clear();
        if (args.trace) log = SpanLog(epoch);
        setup = run_setup(w, args.seed, args.trace ? &log : nullptr);
        ++iterations;
      } while (seconds_between(t0, Clock::now()) < 0.01);
      setup_times.push_back(seconds_between(t0, Clock::now()) /
                            static_cast<double>(iterations));
      if (args.trace && !w.generate_in_cells) {
        LayerSample s;
        std::set<GenerateKey> seen;
        std::vector<GenerateKey> keys;
        for (const auto& p : setup.spec.workloads) {
          for (auto& k : pair_keys(p, setup.spec.scale, args.seed)) keys.push_back(k);
        }
        add_spans(s, log.spans(), &seen, keys);
        setup_layers.push_back(s);
        setup_redundant = s.redundant;
        setup_calls = s.generate_calls;
        setup_spans = log.spans();
      }
    }
  }
  const bool rss_reset = reset_peak_rss();

  // Timed phase.
  std::vector<Rep> untraced, traced;
  const auto phase_start = Clock::now();
  do {
    untraced.push_back(run_untraced(w, setup.spec, setup.cells, setup.traces));
    if (args.trace) traced.push_back(run_traced(w, setup.spec, setup.cells, setup.traces, epoch));
  } while (seconds_between(phase_start, Clock::now()) < args.seconds);
  const std::uint64_t peak_rss = peak_rss_bytes();

  // Checks: every repetition's cells against the first untraced repetition.
  const auto& ref = untraced.front();
  const std::size_t n = ref.cells.size();
  std::vector<std::uint64_t> runs(n, 0), failed(n, 0);
  std::vector<std::string> reason(n);
  const auto tally = [&](const Rep& rep, bool compare_fields) {
    for (std::size_t i = 0; i < n; ++i) {
      ++runs[i];
      std::string why = rep.cells[i].problem;
      if (why.empty() && rep.cells[i].digest != ref.cells[i].digest) {
        why = "science CSV row differs between repetitions";
      }
      if (why.empty() && compare_fields && rep.cells[i].fields != ref.cells[i].fields) {
        why = "traced csv_fields row differs from the untraced row";
      }
      if (!why.empty()) {
        ++failed[i];
        if (reason[i].empty()) reason[i] = why;
      }
    }
  };
  for (const auto& rep : untraced) tally(rep, false);
  for (const auto& rep : traced) tally(rep, true);

  Metrics metrics;
  std::vector<double> walls, cpus, rates;
  for (const auto& rep : untraced) {
    walls.push_back(rep.wall_s);
    cpus.push_back(rep.cpu_s);
    rates.push_back(static_cast<double>(rep.accesses_replayed) / rep.wall_s);
  }
  if (!args.trace) {
    metrics["wall_s"] = {median(walls), "s"};
    metrics["accesses_per_s"] = {median(rates), "1/s"};
    metrics["cpu_s"] = {median(cpus), "s"};
    metrics["peak_rss_mb"] = {static_cast<double>(peak_rss) / 1e6, "MB"};
    metrics["setup_s"] = {median(setup_times), "s"};
  } else {
    // Per-layer samples: one per traced repetition (the replay workloads
    // take their synth numbers from the set-ups instead).
    std::vector<LayerSample> samples;
    for (const auto& rep : traced) {
      LayerSample s;
      std::set<GenerateKey> seen;
      for (std::size_t i = 0; i < rep.spans.size(); ++i) {
        std::vector<GenerateKey> keys;
        if (i < n) {
          const auto& job = rep.sweep.jobs[i].job;
          keys = pair_keys(job.workload, setup.spec.scale, job.seed);
        }
        add_spans(s, rep.spans[i], &seen, keys);
      }
      samples.push_back(s);
    }
    const auto med = [](const std::vector<LayerSample>& xs, auto field) {
      std::vector<double> v;
      for (const auto& x : xs) v.push_back(field(x));
      return median(v);
    };
    const auto& gen_samples = w.generate_in_cells ? samples : setup_layers;
    const std::uint64_t gen_calls =
        w.generate_in_cells ? samples.front().generate_calls : setup_calls;
    const std::uint64_t gen_redundant =
        w.generate_in_cells ? samples.front().redundant : setup_redundant;
    std::uint64_t generated = 0;
    for (const auto& job : ref.sweep.jobs) {
      generated += 2 * expected_accesses(job.job.workload, setup.spec.scale);
    }
    if (!w.generate_in_cells) generated /= w.policies.size();  // Once per profile.
    const double gen_s = med(gen_samples, [](const LayerSample& s) { return s.generate_s; });
    metrics["synth.generate_s"] = {gen_s, "s"};
    metrics["synth.generate_calls"] = {static_cast<double>(gen_calls), "count"};
    metrics["synth.ns_per_access"] = {gen_s / static_cast<double>(generated) * 1e9, "ns"};
    metrics["synth.redundant_frac"] = {
        gen_calls ? static_cast<double>(gen_redundant) / static_cast<double>(gen_calls) : 0.0,
        "fraction"};

    const double footprint_s = med(samples, [](const LayerSample& s) { return s.footprint_s; });
    const double intern_s = med(samples, [](const LayerSample& s) { return s.intern_s; });
    const double run_s = med(samples, [](const LayerSample& s) { return s.run_experiment_s; });
    const auto replayed = static_cast<double>(ref.accesses_replayed);
    metrics["trace.footprint_s"] = {footprint_s, "s"};
    metrics["trace.intern_s"] = {intern_s, "s"};
    metrics["sim.run_experiment_s"] = {run_s, "s"};
    metrics["sim.replay_self_s"] = {
        med(samples, [](const LayerSample& s) {
          return s.run_experiment_s - s.footprint_s - s.intern_s;
        }),
        "s"};
    metrics["sim.ns_per_access"] = {run_s / replayed * 1e9, "ns"};
    metrics["sim.accesses_replayed"] = {replayed, "count"};
    metrics["sim.export_s"] = {med(samples, [](const LayerSample& s) { return s.export_s; }), "s"};
    metrics["model.eval_s"] = {med(samples, [](const LayerSample& s) { return s.model_s; }), "s"};

    // Simulated counts over the measured window (identical on every
    // repetition and across speed-only changes).
    std::uint64_t acc = 0, faults = 0, dram_hits = 0, migrations = 0, nvm_writes = 0;
    std::map<std::string, std::map<std::string, double>> appr, amat, writes;
    for (const auto& job : ref.sweep.jobs) {
      if (!job.ok) continue;
      const auto& c = job.result.counts;
      acc += c.accesses;
      faults += c.page_faults;
      dram_hits += c.dram_hits();
      migrations += c.migrations();
      nvm_writes += job.result.nvm_writes().total();
      const auto& wl = job.job.workload.name;
      appr[wl][job.job.policy] = job.result.appr().total();
      amat[wl][job.job.policy] = job.result.amat().total();
      writes[wl][job.job.policy] = static_cast<double>(job.result.nvm_writes().total());
    }
    const auto per_kacc = [&](std::uint64_t x) {
      return acc ? static_cast<double>(x) * 1000.0 / static_cast<double>(acc) : 0.0;
    };
    metrics["os.faults_per_kacc"] = {per_kacc(faults), "1/kacc"};
    metrics["os.dram_hit_frac"] = {
        acc ? static_cast<double>(dram_hits) / static_cast<double>(acc) : 0.0, "fraction"};
    metrics["core.migrations_per_kacc"] = {per_kacc(migrations), "1/kacc"};
    metrics["mem.nvm_writes_per_kacc"] = {per_kacc(nvm_writes), "1/kacc"};

    // Paper gap (simulated, not validated against hardware). The replay
    // workloads do not run the single-tier baselines, so their dram-only and
    // nvm-only cells are run here, outside the timed phase.
    if (!w.generate_in_cells) {
      for (const auto& [name, pair] : setup.traces) {
        for (const char* policy : {"dram-only", "nvm-only"}) {
          sim::ExperimentConfig config;
          config.policy = policy;
          const auto r = sim::run_experiment(pair.warmup, pair.measured,
                                             pair.roi_seconds, config);
          appr[name][policy] = r.appr().total();
          writes[name][policy] = static_cast<double>(r.nvm_writes().total());
        }
      }
    }
    metrics["model.appr_vs_dram_only_gmean"] = {gap_gmean(appr, "dram-only"), "ratio"};
    metrics["model.amat_vs_clock_dwf_gmean"] = {gap_gmean(amat, "clock-dwf"), "ratio"};
    metrics["model.nvm_writes_vs_nvm_only_gmean"] = {gap_gmean(writes, "nvm-only"), "ratio"};

    // Runner layer, from the untraced repetitions' per-cell wall times.
    std::vector<double> busy, eff, longest;
    for (const auto& rep : untraced) {
      double b = 0, l = 0;
      for (const auto& job : rep.sweep.jobs) {
        b += job.wall_ms / 1000.0;
        l = std::max(l, job.wall_ms / 1000.0);
      }
      busy.push_back(b);
      longest.push_back(l);
      eff.push_back(b / (rep.sweep.wall_s * static_cast<double>(rep.sweep.workers)));
    }
    metrics["runner.busy_s"] = {median(busy), "s"};
    metrics["runner.parallel_efficiency"] = {median(eff), "fraction"};
    metrics["runner.longest_cell_s"] = {median(longest), "s"};
    metrics["runner.cells"] = {static_cast<double>(n), "count"};

    // Tracing: overhead of the traced cells (probe spans excluded) against
    // the untraced cells of the paired repetition, and the share of the
    // traced wall time (times workers) its leaf spans cover.
    std::vector<double> overhead, coverage;
    for (std::size_t r = 0; r < traced.size(); ++r) {
      const auto& s = samples[r];
      double untraced_busy = 0;
      for (const auto& job : untraced[r].sweep.jobs) untraced_busy += job.wall_ms / 1000.0;
      overhead.push_back((s.cell_s - s.footprint_s - s.intern_s) / untraced_busy - 1.0);
      coverage.push_back(s.leaf_s / (traced[r].wall_s * static_cast<double>(w.workers)));
    }
    metrics["bench.tracing_overhead_frac"] = {median(overhead), "fraction"};
    metrics["bench.span_coverage_frac"] = {median(coverage), "fraction"};
  }

  if (!args.spans_path.empty() && args.trace) {
    write_spans(args.spans_path, traced, setup_spans);
  }

  // The report.
  std::ostringstream out;
  out << "{\"workload\": \"" << w.name << "\", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"manifest\": {\"seed\": " << args.seed << ", \"scale\": " << w.scale
      << ", \"workers\": " << w.workers
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << util::json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << util::json_escape(PERFBENCH_BUILD_TYPE)
      << "\", \"seconds\": " << num(args.seconds)
      << ", \"untraced_reps\": " << untraced.size()
      << ", \"traced_reps\": " << traced.size()
      << ", \"setup_reps\": " << setup_times.size()
      << ", \"peak_rss_reset\": " << (rss_reset ? "true" : "false")
      << "}, \"csv_digest\": \"" << ref.csv_digest << "\", \"cells\": [";
  for (std::size_t i = 0; i < n; ++i) {
    const auto& job = ref.sweep.jobs[i].job;
    out << (i ? ", " : "") << "{\"id\": " << i << ", \"workload\": \""
        << util::json_escape(job.workload.name) << "\", \"policy\": \""
        << util::json_escape(job.policy) << "\", \"digest\": \""
        << ref.cells[i].digest << "\", \"runs\": " << runs[i]
        << ", \"failed\": " << failed[i] << ", \"reason\": \""
        << util::json_escape(reason[i]) << "\"}";
  }
  out << "], \"rep_wall_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i) out << (i ? ", " : "") << num(walls[i]);
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}, \"probe_sink\": " << g_probe_sink << "}\n";
  std::cout << out.str();
  return 0;
}
