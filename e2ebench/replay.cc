#include "e2ebench/replay.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

namespace oodb::e2e {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Counter* BatchPoolMisses() {
  static Counter* misses =
      MetricsRegistry::Global().counter("oodb_batch_pool_misses_total");
  return misses;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case kStatement: return "statement";
    case kParse: return "query.parse_simplify";
    case kFingerprint: return "query.fingerprint";
    case kLookup: return "plan_cache.lookup";
    case kOptimize: return "volcano.optimize";
    case kInsert: return "plan_cache.insert";
    case kExecute: return "exec.execute";
    case kNumLayers: break;
  }
  return "?";
}

Replayer::Replayer(Workload* workload)
    : workload_(workload),
      cache_(workload->session().options().optimizer.plan_cache_capacity) {}

Result<ReplayCounts> Replayer::Run(const std::string& zql, uint32_t seq,
                                   bool warm, std::vector<Span>* spans) {
  Session& session = workload_->session();
  Catalog* catalog = &session.catalog();
  const OptimizerOptions& opt_options = session.options().optimizer;
  auto span = [&](Layer layer, int64_t start_ns, int64_t end_ns) {
    spans->push_back({seq, layer, warm, start_ns, end_ns});
  };
  const int64_t stmt_start = NowNs();

  QueryContext ctx;
  ctx.catalog = catalog;
  SortSpec order;
  int64_t limit = 0;
  int64_t t0 = NowNs();
  Result<LogicalExprPtr> logical = ParseAndSimplify(zql, &ctx, &order, &limit);
  span(kParse, t0, NowNs());
  if (!logical.ok()) return logical.status();
  PhysProps required;
  required.sort = order;
  required.limit = limit;

  // The cache key exactly as Session::Prepare builds it.
  const uint64_t version = catalog->stats_version();
  t0 = NowNs();
  QueryFingerprint qfp = FingerprintQuery(
      **logical, ctx, opt_options.plan_cache_parameterize);
  PhysProps cache_props = required;
  cache_props.limit = LimitBucket(limit);
  PlanCacheKey key{qfp.fp, cache_props, HashOptimizerOptions(opt_options)};
  span(kFingerprint, t0, NowNs());

  ReplayCounts out;
  OptimizedQuery optimized;
  t0 = NowNs();
  std::optional<OptimizedQuery> hit =
      cache_.Lookup(key, version, **logical, ctx.bindings, qfp.literals);
  if (hit) {
    optimized = std::move(*hit);
    optimized.plan = RebindPlanLimit(optimized.plan, limit);
  }
  span(kLookup, t0, NowNs());
  out.hit = hit.has_value();

  if (!out.hit) {
    t0 = NowNs();
    Result<OptimizedQuery> searched =
        Optimizer(catalog, opt_options).Optimize(**logical, &ctx, required);
    span(kOptimize, t0, NowNs());
    if (!searched.ok()) return searched.status();
    optimized = std::move(*searched);
    if (!optimized.stats.degraded && optimized.stats.verify_error.empty()) {
      t0 = NowNs();
      auto entry = std::make_shared<CachedPlan>();
      entry->plan = optimized.plan;
      entry->cost = optimized.cost;
      entry->stats = optimized.stats;
      entry->stats_version = version;
      entry->tree = *logical;
      entry->bindings = ctx.bindings;
      entry->literals = std::move(qfp.literals);
      cache_.Insert(key, std::move(entry));
      span(kInsert, t0, NowNs());
    }
  }

  if (!workload_->executes()) {
    out.stmt = CountsOf(optimized, nullptr);
    span(kStatement, stmt_start, NowNs());
    return out;
  }
  const int64_t misses_before = BatchPoolMisses()->value();
  t0 = NowNs();
  Result<ExecStats> exec = ExecutePlan(*optimized.plan, &session.store(), &ctx,
                                       session.options().exec);
  span(kExecute, t0, NowNs());
  const int64_t pool_misses = BatchPoolMisses()->value() - misses_before;
  if (!exec.ok()) return exec.status();
  out.stmt = CountsOf(optimized, &*exec);
  out.stmt.batch_pool_misses = pool_misses;
  span(kStatement, stmt_start, NowNs());
  return out;
}

}  // namespace oodb::e2e
