// The benchmark's four workloads over the public Session API. Each one
// builds its database from a seed, generates one round of ZQL statements
// from the same seed, and checks every result against a computation made
// apart from the optimizer (the generated population, or properties the
// method must have). See README.md for why each workload exists.
#ifndef OODB_E2EBENCH_WORKLOADS_H_
#define OODB_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/oodb.h"

namespace oodb::e2e {

/// One statement of a workload round.
struct Stmt {
  int cls = 0;  ///< index into Workload::classes()
  std::string zql;
};

/// The deterministic footprint of one statement: what the determinism
/// canary compares between database instances and between passes.
struct StmtCounts {
  double sim_s = 0.0;  ///< executed sim CPU+I/O, or the plan's Cost::total
  double sim_cpu_s = 0.0;
  double sim_io_s = 0.0;
  int64_t rows = 0;
  int64_t pages_read = 0;
  int64_t seq_reads = 0;
  int64_t random_reads = 0;
  int64_t buffer_hits = 0;
  int64_t batch_pool_misses = 0;  ///< filled by the traced replay only
  int dop = 1;
  // Effort of the search that produced the plan (SearchStats).
  int groups = 0;
  int logical_mexprs = 0;
  int phys_alternatives = 0;
  int transformation_firings = 0;
  int impl_firings = 0;
  int enforcer_firings = 0;

  /// Field names that differ from `o`; the fields that depend on the
  /// thread schedule at dop > 1 (sim_s, sim_io_s, pages read, seq/random
  /// reads, buffer hits, BatchPool misses) are skipped unless `exact_io`.
  std::vector<std::string> Diff(const StmtCounts& o, bool exact_io) const;
};

/// `exec` is null for a statement that was only prepared.
StmtCounts CountsOf(const OptimizedQuery& q, const ExecStats* exec);

/// Seconds spent in the named parts of Setup.
struct SetupTimes {
  double populate_s = 0.0;  ///< catalog build, data generation, indexes
  double analyze_s = 0.0;   ///< ANALYZE
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds catalog, store, data, indexes and statistics, and the round of
  /// statements, all from `seed`.
  virtual Status Setup(uint64_t seed, SetupTimes* times) = 0;

  const std::string& name() const { return name_; }
  Session& session() { return *session_; }
  const std::vector<std::string>& classes() const { return classes_; }
  /// One round: every distinct statement once, in the order the timed loop
  /// sends them.
  const std::vector<Stmt>& round() const { return round_; }
  /// Statements only prepared (plan-cold) or also executed.
  bool executes() const { return executes_; }
  /// Simulated I/O repeats exactly between runs (false at dop > 1, where
  /// the shared disk arm and buffer pool make seek classification and
  /// page misses depend on the thread schedule).
  bool exact_io() const { return exact_io_; }
  /// The input make-up, as (name, value) pairs: scale, store pages versus
  /// buffer-pool pages, plan-cache capacity versus distinct statements.
  const std::vector<std::pair<std::string, double>>& facts() const {
    return facts_;
  }

  /// Sends one statement through the Session (Prepare or Query).
  Result<SessionResult> Run(const std::string& zql);

  /// The statement's simulated seconds (see StmtCounts::sim_s).
  double SimSeconds(const SessionResult& r) const;

  /// The per-statement check of the timed loop: cheap, run on every result.
  virtual bool QuickCheck(size_t stmt, const SessionResult& r) const = 0;

  /// Runs every statement of the round once with whole result sets kept and
  /// checks each result in full. Appends one Status per check (the caller
  /// counts them as attempted/failed) and each statement's counts.
  virtual void CheckPass(std::vector<Status>* checks,
                         std::vector<StmtCounts>* counts) = 0;

 protected:
  std::string name_;
  std::vector<std::string> classes_;
  std::vector<Stmt> round_;
  bool executes_ = true;
  bool exact_io_ = true;
  std::vector<std::pair<std::string, double>> facts_;
  std::unique_ptr<Session> session_;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace oodb::e2e

#endif  // OODB_E2EBENCH_WORKLOADS_H_
