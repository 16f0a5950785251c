// The traced run: replays a workload's statements through the public layer
// calls in Session's order -- ParseAndSimplify, FingerprintQuery,
// PlanCache::Lookup (or Optimizer::Optimize + PlanCache::Insert),
// ExecutePlan -- with a span around each call. Spans are recorded from the
// benchmark's own code (the library is not instrumented), kept in memory,
// and reduced to per-layer self times and counts at the end.
#ifndef OODB_E2EBENCH_REPLAY_H_
#define OODB_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "e2ebench/workloads.h"

namespace oodb::e2e {

/// The layer a span covers. kStatement is the root span of one statement;
/// every other span is its child.
enum Layer : uint8_t {
  kStatement,
  kParse,        // query: ParseAndSimplify
  kFingerprint,  // query: FingerprintQuery + cache key
  kLookup,       // plan_cache: Lookup (+ limit rebind on a hit)
  kOptimize,     // volcano: Optimizer::Optimize
  kInsert,       // plan_cache: entry build + Insert (+ eviction)
  kExecute,      // exec: ExecutePlan
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t stmt;  ///< statement sequence number (shared by its spans)
  Layer layer;
  bool warm;      ///< recorded in the warm pass that fills the replay cache
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-statement work counts gathered at the layer boundaries.
struct ReplayCounts {
  StmtCounts stmt;
  bool hit = false;  ///< the plan cache served the plan
};

/// Replays statements against a workload's catalog and store with a plan
/// cache of its own (same capacity and options as the workload's Session).
class Replayer {
 public:
  explicit Replayer(Workload* workload);

  /// Runs one statement, appending its spans (statement sequence number
  /// `seq`). Returns the statement's counts.
  Result<ReplayCounts> Run(const std::string& zql, uint32_t seq, bool warm,
                           std::vector<Span>* spans);

 private:
  Workload* workload_;
  PlanCache cache_;
};

}  // namespace oodb::e2e

#endif  // OODB_E2EBENCH_REPLAY_H_
