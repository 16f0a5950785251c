// oodb_e2e: the repository's end-to-end benchmark.
//
//   oodb_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Closed loop, one client, one process. Each run builds the workload's
// database from the seed nine times (setup_s is the median), checks every
// distinct statement, sends whole rounds of statements through the Session
// API for the run length, and checks every statement again. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it alternates untraced
// rounds with rounds of a traced replay (replay.h) and prints the per-layer
// metrics. The last line of standard output is the JSON result; the same
// figures, with per-class and per-layer detail, go to
// <out-dir>/<workload>.e2e.json or <workload>.layers.json.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "e2ebench/probe.h"
#include "e2ebench/replay.h"
#include "e2ebench/stats.h"
#include "e2ebench/workloads.h"

namespace oodb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent database instances built per run; setup figures are their
/// medians, and the determinism canary compares them with each other.
constexpr int kSetups = 9;
/// Probe slices before each setup.
constexpr int kSetupSlices = 5;
/// Span buffer of the traced replay (24 bytes each).
constexpr size_t kMaxSpans = size_t{1} << 21;
/// Failure messages printed to stderr before the rest are only counted.
constexpr int kMaxReported = 20;
/// Simulated-seconds samples kept per statement (the first rounds').
constexpr size_t kMaxSimSamples = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && MakeWorkload(args->workload) != nullptr;
}

/// Attempted/failed operations: every check and every timed statement.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(const Status& s) {
    ++attempted;
    if (s.ok()) return;
    if (failed++ < kMaxReported) {
      std::fprintf(stderr, "FAILED: %s\n", s.ToString().c_str());
    }
  }
};

/// Determinism canary: the counts of each statement must repeat exactly
/// (simulated I/O only where the workload's I/O is exact).
void CompareCounts(const Workload& w, const std::string& what,
                   const std::vector<StmtCounts>& a,
                   const std::vector<StmtCounts>& b, Tally* tally) {
  for (size_t i = 0; i < w.round().size(); ++i) {
    if (i >= a.size() || i >= b.size()) {
      tally->Add(Status::Internal(what + ": missing counts"));
      continue;
    }
    std::vector<std::string> diff = a[i].Diff(b[i], w.exact_io());
    std::string msg;
    for (const std::string& d : diff) msg += " " + d;
    tally->Add(diff.empty()
                   ? Status::OK()
                   : Status::Internal(what + ": " +
                                      w.classes()[w.round()[i].cls] +
                                      " differs in" + msg));
  }
}

struct SetupFigures {
  std::vector<double> setup_s, populate_s, analyze_s, warmup_s;
  std::vector<std::vector<StmtCounts>> warm_counts;  // per instance
};

/// Builds the workload kSetups times (keeping the last instance), each time
/// followed by the warm-up pass: every distinct statement once.
std::unique_ptr<Workload> SetUp(const Args& args, SetupFigures* fig,
                                SpeedProbe* probe, Status* error) {
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // one instance alive at a time
    for (int j = 0; j < kSetupSlices; ++j) probe->Slice();
    w = MakeWorkload(args.workload);
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    *error = w->Setup(args.seed, &times);
    if (!error->ok()) return nullptr;
    const Clock::time_point t1 = Clock::now();
    std::vector<StmtCounts> counts;
    for (const Stmt& s : w->round()) {
      Result<SessionResult> r = w->Run(s.zql);
      if (!r.ok()) {
        *error = r.status();
        return nullptr;
      }
      counts.push_back(
          CountsOf(r->optimized, w->executes() ? &r->exec : nullptr));
    }
    fig->warmup_s.push_back(SecondsSince(t1));
    fig->setup_s.push_back(SecondsSince(t0));
    fig->populate_s.push_back(times.populate_s);
    fig->analyze_s.push_back(times.analyze_s);
    fig->warm_counts.push_back(std::move(counts));
  }
  return w;
}

struct LoopFigures {
  explicit LoopFigures(const Workload& w)
      : latency_ms(w.classes().size()), sim_s(w.round().size()) {}

  int64_t statements = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;  ///< wall time of the rounds, probe slices left out
  std::vector<LatencyHistogram> latency_ms;  // per class
  std::vector<std::vector<double>> sim_s;    // per round statement
};

/// One round through the Session, with probe slices between statements.
void SessionRound(Workload& w, SpeedProbe* probe, LoopFigures* f) {
  const double probe_before = probe->spent_s();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < w.round().size(); ++i) {
    probe->Tick();
    const Stmt& s = w.round()[i];
    const Clock::time_point t0 = Clock::now();
    Result<SessionResult> r = w.Run(s.zql);
    const Clock::time_point t1 = Clock::now();
    ++f->statements;
    if (!r.ok() || !w.QuickCheck(i, *r)) {
      if (f->failed++ < kMaxReported) {
        std::fprintf(stderr, "FAILED: %s: %s\n", w.classes()[s.cls].c_str(),
                     r.ok() ? "wrong row count"
                            : r.status().ToString().c_str());
      }
      continue;
    }
    f->latency_ms[s.cls].Add(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (f->sim_s[i].size() < kMaxSimSamples) {
      f->sim_s[i].push_back(w.SimSeconds(*r));
    }
  }
  f->elapsed_s += SecondsSince(start) - (probe->spent_s() - probe_before);
}

/// Per class: the mean over the class's statements of each statement's
/// median simulated seconds.
std::vector<double> SimPerClass(const Workload& w, const LoopFigures& f) {
  std::vector<double> sum(w.classes().size(), 0.0), n(sum.size(), 0.0);
  for (size_t i = 0; i < w.round().size(); ++i) {
    if (f.sim_s[i].empty()) continue;
    sum[w.round()[i].cls] += Median(f.sim_s[i]);
    n[w.round()[i].cls] += 1.0;
  }
  for (size_t c = 0; c < sum.size(); ++c) {
    if (n[c] > 0.0) sum[c] /= n[c];
  }
  return sum;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// All digits of a double, as JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + Num(v[i]);
  return out;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", " : "") + Str(m.name) + ": {\"value\": " +
           Num(m.value) + ", \"unit\": " + Str(m.unit) + "}";
  }
  return out + "}";
}

std::string FactsJson(const Workload& w) {
  std::string out = "{";
  for (size_t i = 0; i < w.facts().size(); ++i) {
    out += (i > 0 ? ", " : "") + Str(w.facts()[i].first) + ": " +
           Num(w.facts()[i].second);
  }
  return out + "}";
}

void WriteFile(const Args& args, const std::string& suffix,
               const std::string& body) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/" + args.workload + suffix;
  std::ofstream out(path);
  out << body << "\n";
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

/// Per-class latency lines: median, the highest percentile with ten samples
/// beyond it, and the sample count (informational; no bound).
std::string ClassReport(const Workload& w, const LoopFigures& f,
                        const std::vector<double>& sim,
                        std::vector<double>* medians) {
  std::string json = "[";
  for (size_t c = 0; c < w.classes().size(); ++c) {
    const LatencyHistogram& lat = f.latency_ms[c];
    const double median = lat.Median();
    const double q = TailQuantile(static_cast<size_t>(lat.count()));
    medians->push_back(median);
    std::printf("  %-15s n=%-7lld sim=%-11.6g median=%.4f ms",
                w.classes()[c].c_str(), static_cast<long long>(lat.count()),
                sim[c], median);
    if (q > 0.0) std::printf("  p%g=%.4f ms", q * 100.0, lat.Quantile(q));
    std::printf("\n");
    json += std::string(c > 0 ? ", " : "") + "{\"class\": " +
            Str(w.classes()[c]) + ", \"samples\": " +
            std::to_string(lat.count()) + ", \"sim_s\": " + Num(sim[c]) +
            ", \"median_ms\": " + Num(median) +
            (q > 0.0 ? ", \"tail_quantile\": " + Num(q) +
                           ", \"tail_ms\": " + Num(lat.Quantile(q))
                     : std::string()) +
            "}";
  }
  return json + "]";
}

/// The traced replay's figures, reduced from the spans.
struct TraceFigures {
  int64_t statements = 0;  ///< timed rounds; each does one cache lookup
  int64_t rounds = 0;
  int64_t hits = 0;
  // Per layer: calls and summed self time in the timed rounds, and the same
  // over the warm pass (the only place cached workloads optimize).
  int64_t calls[kNumLayers] = {};
  double self_ns[kNumLayers] = {};
  int64_t warm_calls[kNumLayers] = {};
  double warm_self_ns[kNumLayers] = {};
  // Work counts summed over the executed statements of the timed rounds.
  int64_t executed = 0;
  double rows = 0, pool_misses = 0, dop = 0, pages = 0, seq = 0, random = 0,
         hits_buf = 0;
  // Simulated seconds per statement over the first timed round.
  double sim_cpu_s = 0, sim_io_s = 0;
  // Search counts per optimized statement (timed rounds, else warm pass).
  StmtCounts search_sum;
  int64_t searches = 0;
  StmtCounts warm_search_sum;
  int64_t warm_searches = 0;

  /// Summed self time of the layer spans in the timed rounds.
  double LayerNs() const {
    double ns = 0.0;
    for (int l = kStatement + 1; l < kNumLayers; ++l) ns += self_ns[l];
    return ns;
  }
  /// Mean traced statement time in the timed rounds, in microseconds.
  double StatementUs() const {
    return (self_ns[kStatement] + LayerNs()) / static_cast<double>(statements)
           / 1e3;
  }
};

void AddSearch(const StmtCounts& c, StmtCounts* sum) {
  sum->groups += c.groups;
  sum->logical_mexprs += c.logical_mexprs;
  sum->phys_alternatives += c.phys_alternatives;
  sum->transformation_firings += c.transformation_firings;
  sum->impl_firings += c.impl_firings;
  sum->enforcer_firings += c.enforcer_firings;
}

/// The traced replay: a warm pass that fills the replayer's own plan
/// cache, then whole timed rounds. Checks every statement's row count and,
/// as the determinism canary, that the first and last timed rounds have
/// identical counts.
class TracedReplay {
 public:
  TracedReplay(Workload* w, const std::vector<int64_t>* want_rows,
               Tally* tally)
      : w_(w), want_rows_(want_rows), tally_(tally), replayer_(w) {
    spans_.reserve(kMaxSpans);
    std::vector<StmtCounts> warm_counts;
    Round(/*warm=*/true, &warm_counts);
  }

  /// False once another round might overflow the span buffer.
  bool has_room() const {
    return spans_.size() + w_->round().size() * kNumLayers <= kMaxSpans;
  }

  void TimedRound() {
    std::vector<StmtCounts> counts;
    Round(/*warm=*/false, &counts);
    if (t_.rounds++ == 0) first_ = counts;
    last_ = std::move(counts);
  }

  TraceFigures Finish() {
    CompareCounts(*w_, "traced replay first vs last round", first_, last_,
                  tally_);
    for (const StmtCounts& c : first_) {
      t_.sim_cpu_s += c.sim_cpu_s / static_cast<double>(first_.size());
      t_.sim_io_s += c.sim_io_s / static_cast<double>(first_.size());
    }
    // Self time: a layer span has no children; the statement span's self
    // time is what its children leave uncovered (the replay's own glue).
    std::vector<double> child_ns(seq_, 0.0);
    for (const Span& s : spans_) {
      if (s.layer != kStatement) {
        child_ns[s.stmt] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (const Span& s : spans_) {
      double self = static_cast<double>(s.end_ns - s.start_ns);
      if (s.layer == kStatement) self -= child_ns[s.stmt];
      if (s.warm) {
        ++t_.warm_calls[s.layer];
        t_.warm_self_ns[s.layer] += self;
      } else {
        ++t_.calls[s.layer];
        t_.self_ns[s.layer] += self;
      }
    }
    return t_;
  }

 private:
  void Round(bool warm, std::vector<StmtCounts>* counts) {
    for (size_t i = 0; i < w_->round().size(); ++i) {
      const Stmt& s = w_->round()[i];
      Result<ReplayCounts> r = replayer_.Run(s.zql, seq_++, warm, &spans_);
      const std::string& cls = w_->classes()[s.cls];
      Status ok = r.ok() ? Status::OK()
                         : Status::Internal(cls + ": " + r.status().ToString());
      if (ok.ok() && w_->executes() && r->stmt.rows != (*want_rows_)[i]) {
        ok = Status::Internal(cls + ": traced replay row count " +
                              std::to_string(r->stmt.rows));
      }
      tally_->Add(ok);
      counts->push_back(r.ok() ? r->stmt : StmtCounts{});
      if (!r.ok()) continue;
      if (!r->hit) {
        AddSearch(r->stmt, warm ? &t_.warm_search_sum : &t_.search_sum);
        ++(warm ? t_.warm_searches : t_.searches);
      }
      if (warm) continue;
      ++t_.statements;
      t_.hits += r->hit ? 1 : 0;
      if (w_->executes()) {
        ++t_.executed;
        t_.rows += static_cast<double>(r->stmt.rows);
        t_.pool_misses += static_cast<double>(r->stmt.batch_pool_misses);
        t_.dop += r->stmt.dop;
        t_.pages += static_cast<double>(r->stmt.pages_read);
        t_.seq += static_cast<double>(r->stmt.seq_reads);
        t_.random += static_cast<double>(r->stmt.random_reads);
        t_.hits_buf += static_cast<double>(r->stmt.buffer_hits);
      }
    }
  }

  Workload* w_;
  const std::vector<int64_t>* want_rows_;
  Tally* tally_;
  Replayer replayer_;
  std::vector<Span> spans_;
  uint32_t seq_ = 0;
  std::vector<StmtCounts> first_, last_;
  TraceFigures t_;
};

/// The per-layer metrics. Layer times are mean self time per call in the
/// timed rounds; the optimizer and the cache insert fall back to the warm
/// pass on workloads whose timed rounds are all cache hits.
std::vector<Metric> LayerMetrics(const TraceFigures& t, double untraced_us,
                                 const SetupFigures& setup) {
  auto per_call = [&](Layer l, double ns_per_unit) {
    if (t.calls[l] > 0) return t.self_ns[l] / t.calls[l] / ns_per_unit;
    if (t.warm_calls[l] > 0) {
      return t.warm_self_ns[l] / t.warm_calls[l] / ns_per_unit;
    }
    return 0.0;
  };
  const StmtCounts& ss = t.searches > 0 ? t.search_sum : t.warm_search_sum;
  const double searches =
      static_cast<double>(t.searches > 0 ? t.searches : t.warm_searches);
  auto per_search = [&](int v) { return searches > 0 ? v / searches : 0.0; };
  const double executed = static_cast<double>(t.executed);
  auto per_exec = [&](double v) { return executed > 0 ? v / executed : 0.0; };
  const double stmts = static_cast<double>(t.statements);
  return {
      {"query.parse_simplify_us", "us", per_call(kParse, 1e3)},
      {"query.fingerprint_us", "us", per_call(kFingerprint, 1e3)},
      {"plan_cache.lookup_us", "us", per_call(kLookup, 1e3)},
      {"plan_cache.hit_ratio", "ratio", static_cast<double>(t.hits) / stmts},
      {"plan_cache.insert_us", "us", per_call(kInsert, 1e3)},
      {"volcano.optimize_ms", "ms", per_call(kOptimize, 1e6)},
      {"volcano.groups", "count", per_search(ss.groups)},
      {"volcano.logical_mexprs", "count", per_search(ss.logical_mexprs)},
      {"volcano.phys_alternatives", "count", per_search(ss.phys_alternatives)},
      {"volcano.transformation_firings", "count",
       per_search(ss.transformation_firings)},
      {"volcano.impl_firings", "count", per_search(ss.impl_firings)},
      {"volcano.enforcer_firings", "count", per_search(ss.enforcer_firings)},
      {"exec.execute_ms", "ms", per_call(kExecute, 1e6)},
      {"exec.rows_out", "count", per_exec(t.rows)},
      {"exec.batch_pool_misses", "count", per_exec(t.pool_misses)},
      {"exec.dop", "count", per_exec(t.dop)},
      {"exec.sim_cpu_s", "sim_s", t.sim_cpu_s},
      {"exec.sim_io_s", "sim_s", t.sim_io_s},
      {"storage.pages_read", "count", per_exec(t.pages)},
      {"storage.seq_reads", "count", per_exec(t.seq)},
      {"storage.random_reads", "count", per_exec(t.random)},
      {"storage.buffer_hits", "count", per_exec(t.hits_buf)},
      {"workloads.populate_s", "s", Median(setup.populate_s)},
      {"catalog.analyze_s", "s", Median(setup.analyze_s)},
      {"session.warmup_s", "s", Median(setup.warmup_s)},
      {"session.unaccounted_us", "us",
       untraced_us - t.LayerNs() / stmts / 1e3},
  };
}

std::string LayersJson(const TraceFigures& t) {
  std::string out = "[";
  for (int l = 0; l < kNumLayers; ++l) {
    out += std::string(l > 0 ? ", " : "") + "{\"layer\": " +
           Str(LayerName(static_cast<Layer>(l))) +
           ", \"calls\": " + std::to_string(t.calls[l]) +
           ", \"self_us\": " + Num(t.self_ns[l] / 1e3) +
           ", \"warm_calls\": " + std::to_string(t.warm_calls[l]) +
           ", \"warm_self_us\": " + Num(t.warm_self_ns[l] / 1e3) + "}";
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: oodb_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }

  Tally tally;
  SetupFigures setup;
  SpeedProbe setup_probe, loop_probe;
  Status error;
  std::unique_ptr<Workload> w = SetUp(args, &setup, &setup_probe, &error);
  if (w == nullptr) {
    std::fprintf(stderr, "setup failed: %s\n", error.ToString().c_str());
    return 1;
  }
  for (int i = 1; i < kSetups; ++i) {
    CompareCounts(*w, "instance " + std::to_string(i) + " vs 0",
                  setup.warm_counts[0], setup.warm_counts[i], &tally);
  }

  // Checks before the timed part (which also fix the expected row counts
  // the timed loop checks against).
  std::vector<Status> checks;
  std::vector<StmtCounts> pass1, pass2;
  w->CheckPass(&checks, &pass1);
  CompareCounts(*w, "check pass vs warm-up", setup.warm_counts.back(), pass1,
                &tally);
  std::vector<int64_t> want_rows;
  for (const StmtCounts& c : pass1) want_rows.push_back(c.rows);

  // The timed part: whole rounds through the Session until the run length
  // has passed. A traced run alternates each untraced round with a traced
  // replay round, so both see the same host speed.
  LoopFigures loop(*w);
  TraceFigures trace;
  {
    std::unique_ptr<TracedReplay> replay;
    if (args.trace) {
      replay = std::make_unique<TracedReplay>(w.get(), &want_rows, &tally);
    }
    const Clock::time_point start = Clock::now();
    do {
      SessionRound(*w, &loop_probe, &loop);
      if (replay != nullptr) replay->TimedRound();
    } while (SecondsSince(start) < args.seconds &&
             (replay == nullptr || replay->has_room()));
    if (replay != nullptr) trace = replay->Finish();
  }
  tally.attempted += loop.statements;
  tally.failed += loop.failed;

  w->CheckPass(&checks, &pass2);
  CompareCounts(*w, "check pass after vs before the timed part", pass1, pass2,
                &tally);
  for (const Status& s : checks) tally.Add(s);

  std::printf("workload %s seed %llu: %lld statements in %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(loop.statements), loop.elapsed_s);
  const std::vector<double> sim_per_class = SimPerClass(*w, loop);
  std::vector<double> medians;
  const std::string classes_json =
      ClassReport(*w, loop, sim_per_class, &medians);
  const double latency_ms = GeoMean(medians);
  const double stmts_per_s =
      static_cast<double>(loop.statements) / loop.elapsed_s;
  const double setup_s = Median(setup.setup_s);
  const double sim = GeoMean(sim_per_class);
  std::printf("  speed probe: %.4f ms/slice in the loop (%zu slices), "
              "%.4f ms in setup; reference %.2f ms\n",
              loop_probe.median_ms(), loop_probe.slices(),
              setup_probe.median_ms(), SpeedProbe::kReferenceMs);

  std::vector<Metric> metrics;
  std::string file;
  if (!args.trace) {
    // Wall-clock figures at the probe's reference speed (probe.h).
    metrics = {{"stmts_per_s", "1/s", stmts_per_s / loop_probe.Factor()},
               {"latency_p50_ms", "ms", latency_ms * loop_probe.Factor()},
               {"sim_s_per_stmt", "sim_s", sim},
               {"setup_s", "s", setup_s * setup_probe.Factor()},
               {"peak_rss_mb", "MB", PeakRssMb()}};
    const std::vector<Metric> raw = {{"stmts_per_s", "1/s", stmts_per_s},
                                     {"latency_p50_ms", "ms", latency_ms},
                                     {"setup_s", "s", setup_s}};
    file = "{\"schema\": \"oodb-e2e/1\", \"workload\": " + Str(args.workload) +
           ", \"seed\": " + std::to_string(args.seed) +
           ", \"seconds\": " + Num(args.seconds) +
           ", \"input\": " + FactsJson(*w) +
           ", \"metrics\": " + MetricsJson(metrics) +
           ", \"raw\": " + MetricsJson(raw) +
           ", \"probe\": {\"reference_ms\": " + Num(SpeedProbe::kReferenceMs) +
           ", \"loop_ms\": " + Num(loop_probe.median_ms()) +
           ", \"loop_slices\": " + std::to_string(loop_probe.slices()) +
           ", \"setup_ms\": " + Num(setup_probe.median_ms()) + "}" +
           ", \"setups_s\": [" + NumList(setup.setup_s) + "]" +
           ", \"classes\": " + classes_json + "}";
    WriteFile(args, ".e2e.json", file);
  } else {
    const double untraced_us =
        loop.elapsed_s * 1e6 / static_cast<double>(loop.statements);
    const double traced_us = trace.StatementUs();
    metrics = LayerMetrics(trace, untraced_us, setup);
    std::printf("  untraced %.3f us/stmt, traced %.3f us/stmt "
                "(tracing overhead %+.3f us, %+.2f%%)\n",
                untraced_us, traced_us, traced_us - untraced_us,
                (traced_us / untraced_us - 1.0) * 100.0);
    file = "{\"schema\": \"oodb-e2e-layers/1\", \"workload\": " +
           Str(args.workload) + ", \"seed\": " + std::to_string(args.seed) +
           ", \"seconds\": " + Num(args.seconds) +
           ", \"input\": " + FactsJson(*w) +
           ", \"untraced\": {\"statements\": " +
           std::to_string(loop.statements) +
           ", \"us_per_stmt\": " + Num(untraced_us) +
           ", \"classes\": " + classes_json + "}" +
           ", \"traced\": {\"statements\": " +
           std::to_string(trace.statements) +
           ", \"rounds\": " + std::to_string(trace.rounds) +
           ", \"us_per_stmt\": " + Num(traced_us) + "}" +
           ", \"tracing_overhead\": {\"us_per_stmt\": " +
           Num(traced_us - untraced_us) +
           ", \"ratio\": " + Num(traced_us / untraced_us) + "}" +
           ", \"layers\": " + LayersJson(trace) +
           ", \"metrics\": " + MetricsJson(metrics) + "}";
    WriteFile(args, ".layers.json", file);
  }

  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace oodb::e2e

int main(int argc, char** argv) { return oodb::e2e::Main(argc, argv); }
