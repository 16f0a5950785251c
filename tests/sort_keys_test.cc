// Order enforcers against std::stable_sort: randomized hand-built Sort,
// partial Sort, TopK and merging-Exchange plans over columns chosen to hit
// every corner of Value::Compare that the runtime key encoding must
// reproduce — ints beyond 2^53 that tie as doubles, -0.0 beside +0.0, nulls
// among numbers, int/double mixes, strings, NaN, and a string first seen
// mid-stream — plus the governor and error paths of the blocking Open().
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

/// How one key column's values are drawn.
enum class ColumnKind {
  kSmallInts,   ///< few distinct ints: long tie runs
  kHugeInts,    ///< ints around 2^53, several rounding to one double
  kSignedZero,  ///< -0.0, +0.0 and int 0 among small doubles
  kNulls,       ///< nulls mixed with numbers (a null orders as 0)
  kMixed,       ///< ints and doubles, numerically interleaved
  kStrings,     ///< every value a string
  kNaN,         ///< doubles with NaN sprinkled in
  kLateString,  ///< numbers, then one string well into the stream
};
constexpr int kNumColumnKinds = 8;

/// True when Value::Compare is a strict weak order over the column, so a
/// top-k is well defined as the stable sort's prefix.
bool Consistent(ColumnKind kind) {
  return kind != ColumnKind::kNaN && kind != ColumnKind::kLateString;
}

Value Draw(ColumnKind kind, Rng& rng, size_t row, size_t late_row) {
  const int64_t kTwo53 = int64_t{1} << 53;
  switch (kind) {
    case ColumnKind::kSmallInts:
      return Value::Int(static_cast<int64_t>(rng.Uniform(4)));
    case ColumnKind::kHugeInts:
      return Value::Int(kTwo53 + static_cast<int64_t>(rng.Uniform(6)) -
                        static_cast<int64_t>(rng.Uniform(3)));
    case ColumnKind::kSignedZero: {
      switch (rng.Uniform(4)) {
        case 0:
          return Value::Double(-0.0);
        case 1:
          return Value::Double(0.0);
        case 2:
          return Value::Int(0);
        default:
          return Value::Double(rng.Uniform(2) == 0 ? -1.5 : 2.25);
      }
    }
    case ColumnKind::kNulls:
      return rng.Uniform(3) == 0
                 ? Value::Null()
                 : Value::Int(static_cast<int64_t>(rng.Uniform(5)) - 2);
    case ColumnKind::kMixed:
      return rng.Uniform(2) == 0
                 ? Value::Int(static_cast<int64_t>(rng.Uniform(5)))
                 : Value::Double(static_cast<double>(rng.Uniform(9)) / 2.0);
    case ColumnKind::kStrings: {
      static const char* kWords[] = {"", "a", "ab", "b", "ba", "zz"};
      return Value::Str(kWords[rng.Uniform(6)]);
    }
    case ColumnKind::kNaN:
      return rng.Uniform(5) == 0
                 ? Value::Double(std::numeric_limits<double>::quiet_NaN())
                 : Value::Double(static_cast<double>(rng.Uniform(6)));
    case ColumnKind::kLateString:
      if (row == late_row) return Value::Str("late");
      return Value::Int(static_cast<int64_t>(rng.Uniform(7)) - 3);
  }
  return Value::Null();
}

class SortKernelTest : public ::testing::Test {
 protected:
  SortKernelTest() : db_(MakePaperCatalog(0.02)) {
    ctx_.catalog = &db_.catalog;
    e_ = ctx_.bindings.AddGet("e", db_.employee);
    fields_ = {db_.emp_age, db_.emp_salary, db_.emp_last_raise, db_.emp_name};
  }

  /// Loads one Employee per row (creation order = scan order), column c of
  /// a row going into fields_[c]. Returns the OIDs in row order.
  std::vector<Oid> Load(ObjectStore* store,
                        const std::vector<std::vector<Value>>& rows) {
    std::vector<Oid> oids;
    for (const std::vector<Value>& row : rows) {
      Oid o = store->Create(db_.employee);
      for (size_t c = 0; c < row.size(); ++c) {
        store->SetValue(o, fields_[c], row[c]);
      }
      oids.push_back(o);
    }
    return oids;
  }

  PlanNodePtr Node(PhysicalOp op, std::vector<PlanNodePtr> children) {
    LogicalProps props;
    props.scope = BindingSet::Of(e_);
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(e_);
    return PlanNode::Make(std::move(op), std::move(children), props, delivered,
                          Cost{});
  }

  PlanNodePtr Scan() {
    PhysicalOp op;
    op.kind = PhysOpKind::kFileScan;
    op.coll = CollectionId::Extent(db_.employee);
    op.binding = e_;
    return Node(op, {});
  }

  /// `kind` (Sort or TopK) over a scan of the extent; merge_dop > 1 runs
  /// that enforcer per partition under a merging Exchange.
  PlanNodePtr Enforced(PhysOpKind kind, const std::vector<SortKey>& keys,
                       int prefix, int64_t limit, int merge_dop = 1) {
    PhysicalOp op;
    op.kind = kind;
    op.sort = SortSpec(keys);
    op.sort_prefix = prefix;
    op.limit = limit;
    PlanNodePtr plan = Node(op, {Scan()});
    if (merge_dop > 1) {
      PhysicalOp x;
      x.kind = PhysOpKind::kExchange;
      x.merge = true;
      x.dop = merge_dop;
      x.sort = SortSpec(keys);
      x.limit = limit;
      plan = Node(x, {plan});
    }
    return plan;
  }

  /// Runs `plan` under a projection of the row's OID and returns the OIDs
  /// in output order.
  Result<std::vector<Oid>> Run(ObjectStore* store, const PlanNodePtr& plan,
                               int batch_size, int vectorize,
                               QueryGovernor* governor = nullptr) {
    PhysicalOp proj;
    proj.kind = PhysOpKind::kAlgProject;
    proj.emit = {ScalarExpr::Self(e_)};
    PlanNodePtr root = Node(proj, {plan});
    ExecOptions eo;
    eo.sample_limit = 1 << 22;
    eo.batch_size = batch_size;
    eo.vectorize = vectorize;
    eo.governor = governor;
    OODB_ASSIGN_OR_RETURN(ExecStats stats,
                          ExecutePlan(*root, store, &ctx_, eo));
    std::vector<Oid> out;
    for (const std::vector<Value>& row : stats.sample_rows) {
      out.push_back(row[0].i);
    }
    return out;
  }

  PaperDb db_;
  QueryContext ctx_;
  BindingId e_ = kInvalidBinding;
  std::vector<FieldId> fields_;
};

/// Directed Value::Compare of rows a and b on keys [from, to) — the
/// semantics every order enforcer must reproduce.
int CompareRows(const std::vector<std::vector<Value>>& rows,
                const std::vector<bool>& desc, size_t a, size_t b,
                size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    int c = rows[a][i].Compare(rows[b][i]);
    if (c != 0) return desc[i] ? -c : c;
  }
  return 0;
}

/// Row indices in input order, stable-sorted within runs of equal prefix
/// keys [0, prefix) on keys [prefix, n) — a run closes when a row's prefix
/// differs from the run's first row. With prefix 0 it is one full
/// std::stable_sort.
std::vector<size_t> StableSorted(const std::vector<std::vector<Value>>& rows,
                                 const std::vector<bool>& desc,
                                 size_t prefix) {
  const size_t nkeys = desc.size();
  std::vector<size_t> out;
  size_t begin = 0;
  auto flush = [&](size_t end) {
    std::vector<size_t> run;
    for (size_t i = begin; i < end; ++i) run.push_back(i);
    std::stable_sort(run.begin(), run.end(), [&](size_t a, size_t b) {
      return CompareRows(rows, desc, a, b, prefix, nkeys) < 0;
    });
    out.insert(out.end(), run.begin(), run.end());
    begin = end;
  };
  for (size_t i = 1; i < rows.size() && prefix > 0; ++i) {
    if (CompareRows(rows, desc, begin, i, 0, prefix) != 0) flush(i);
  }
  flush(rows.size());
  return out;
}

/// Top k by a bounded heap under Value::Compare with arrival-sequence tie
/// breaks. Where Compare is a strict weak order this equals the stable
/// sort's first k rows; where it is not (NaN, strings among numbers) no
/// sort defines a top-k, and this pins the heap's outcome instead.
std::vector<size_t> HeapTopK(const std::vector<std::vector<Value>>& rows,
                             const std::vector<bool>& desc, size_t k) {
  const size_t nkeys = desc.size();
  auto worse = [&](size_t a, size_t b) {  // indices are arrival sequence
    int c = CompareRows(rows, desc, a, b, 0, nkeys);
    return c != 0 ? c > 0 : a > b;
  };
  auto heap_less = [&](size_t a, size_t b) { return worse(b, a); };
  std::vector<size_t> heap;
  for (size_t i = 0; i < rows.size() && k > 0; ++i) {
    if (heap.size() >= k) {
      if (!worse(heap.front(), i)) continue;
      std::pop_heap(heap.begin(), heap.end(), heap_less);
      heap.pop_back();
    }
    heap.push_back(i);
    std::push_heap(heap.begin(), heap.end(), heap_less);
  }
  std::stable_sort(heap.begin(), heap.end(), [&](size_t a, size_t b) {
    int c = CompareRows(rows, desc, a, b, 0, nkeys);
    return c != 0 ? c < 0 : a < b;
  });
  return heap;
}

std::vector<Oid> ToOids(const std::vector<size_t>& idx,
                        const std::vector<Oid>& oids) {
  std::vector<Oid> out;
  for (size_t i : idx) out.push_back(oids[i]);
  return out;
}

TEST_F(SortKernelTest, RandomizedEnforcersMatchStableSort) {
  Rng rng(0x5047);
  for (int iter = 0; iter < 240; ++iter) {
    const size_t nkeys = 1 + rng.Uniform(4);
    const size_t n = iter % 24 == 0 ? 0 : rng.Uniform(400);
    std::vector<ColumnKind> kinds;
    std::vector<bool> desc;
    std::vector<SortKey> keys;
    bool consistent = true;
    std::string label = "iter " + std::to_string(iter) + " n=" +
                        std::to_string(n) + " keys:";
    for (size_t c = 0; c < nkeys; ++c) {
      kinds.push_back(static_cast<ColumnKind>(rng.Uniform(kNumColumnKinds)));
      desc.push_back(rng.Uniform(2) == 1);
      keys.push_back(SortKey{e_, fields_[c], desc.back()});
      consistent &= Consistent(kinds.back());
      label += " " + std::to_string(static_cast<int>(kinds.back())) +
               (desc.back() ? "d" : "a");
    }
    SCOPED_TRACE(label);
    const size_t late_row = n / 2 + rng.Uniform(n / 2 + 1);
    std::vector<std::vector<Value>> rows(n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < nkeys; ++c) {
        rows[r].push_back(Draw(kinds[c], rng, r, late_row));
      }
    }
    // A partial sort's input arrives sorted on its prefix.
    const size_t prefix = rng.Uniform(nkeys + 1);
    if (prefix > 0) {
      std::vector<size_t> by_prefix(n);
      for (size_t i = 0; i < n; ++i) by_prefix[i] = i;
      std::stable_sort(by_prefix.begin(), by_prefix.end(),
                       [&](size_t a, size_t b) {
                         return CompareRows(rows, desc, a, b, 0, prefix) < 0;
                       });
      std::vector<std::vector<Value>> reordered;
      for (size_t i : by_prefix) reordered.push_back(rows[i]);
      rows = std::move(reordered);
    }

    ObjectStore store(&db_.catalog);
    std::vector<Oid> oids = Load(&store, rows);
    const int batch = std::vector<int>{1, 5, 64, 1024}[rng.Uniform(4)];
    const int vectorize = static_cast<int>(rng.Uniform(2));
    SCOPED_TRACE("batch " + std::to_string(batch) + " vectorize " +
                 std::to_string(vectorize) + " prefix " +
                 std::to_string(prefix));

    // Full sort and partial sort.
    std::vector<size_t> full = StableSorted(rows, desc, 0);
    auto sorted = Run(&store, Enforced(PhysOpKind::kSort, keys, 0, 0), batch,
                      vectorize);
    ASSERT_TRUE(sorted.ok()) << sorted.status();
    EXPECT_EQ(*sorted, ToOids(full, oids)) << "full sort";
    auto partial = Run(&store,
                       Enforced(PhysOpKind::kSort, keys,
                                static_cast<int>(prefix), 0),
                       batch, vectorize);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_EQ(*partial, ToOids(StableSorted(rows, desc, prefix), oids))
        << "partial sort";

    // TopK at k of 0, 1, a random bound (ties at the boundary are common
    // with few distinct values), n, and past n.
    for (size_t k : {size_t{0}, size_t{1}, 1 + rng.Uniform(n + 1), n, n + 3}) {
      SCOPED_TRACE("k " + std::to_string(k));
      std::vector<size_t> expect = HeapTopK(rows, desc, k);
      if (consistent) {
        std::vector<size_t> prefix_k(full.begin(),
                                     full.begin() + std::min(k, n));
        ASSERT_EQ(expect, prefix_k) << "reference heap vs stable sort";
      }
      auto topk = Run(&store,
                      Enforced(PhysOpKind::kTopK, keys,
                               static_cast<int>(std::min(prefix, nkeys - 1)),
                               static_cast<int64_t>(k)),
                      batch, vectorize);
      ASSERT_TRUE(topk.ok()) << topk.status();
      EXPECT_EQ(*topk, ToOids(expect, oids)) << "heap top-k";
      // Fully presorted input: the streaming first-k cutoff.
      auto first_k = Run(&store,
                         Enforced(PhysOpKind::kTopK, keys,
                                  static_cast<int>(nkeys),
                                  static_cast<int64_t>(k)),
                         batch, vectorize);
      ASSERT_TRUE(first_k.ok()) << first_k.status();
      EXPECT_EQ(*first_k,
                std::vector<Oid>(oids.begin(),
                                 oids.begin() + std::min(k, n)))
          << "streaming top-k";
    }

    // Merging Exchange over per-partition sorts: contiguous partitions and
    // ties to the lower partition index reproduce the serial stable sort
    // wherever that sort is well defined.
    if (consistent) {
      const int dop = 2 + static_cast<int>(rng.Uniform(3));
      auto merged = Run(&store, Enforced(PhysOpKind::kSort, keys, 0, 0, dop),
                        batch, vectorize);
      ASSERT_TRUE(merged.ok()) << merged.status();
      EXPECT_EQ(*merged, ToOids(full, oids)) << "merge dop " << dop;
    }
  }
}

TEST_F(SortKernelTest, HugeIntsTieAsDoubles) {
  // 2^53 + 1 rounds to 2^53 in double, as Value::Compare sees it: the two
  // rows tie and keep arrival order in either direction.
  const int64_t kTwo53 = int64_t{1} << 53;
  ObjectStore store(&db_.catalog);
  std::vector<Oid> oids = Load(
      &store, {{Value::Int(kTwo53 + 1)}, {Value::Int(kTwo53)},
               {Value::Int(kTwo53 - 1)}, {Value::Double(-0.0)},
               {Value::Double(0.0)}, {Value::Null()}});
  for (bool desc : {false, true}) {
    SCOPED_TRACE(desc);
    auto out = Run(&store,
                   Enforced(PhysOpKind::kSort, {SortKey{e_, fields_[0], desc}},
                            0, 0),
                   1024, 0);
    ASSERT_TRUE(out.ok()) << out.status();
    // -0.0, +0.0 and null all order as 0 and keep arrival order.
    std::vector<Oid> zeros = {oids[3], oids[4], oids[5]};
    std::vector<Oid> expect = zeros;
    if (desc) {
      expect = {oids[0], oids[1], oids[2]};
      expect.insert(expect.end(), zeros.begin(), zeros.end());
    } else {
      expect.insert(expect.end(), {oids[2], oids[0], oids[1]});
    }
    EXPECT_EQ(*out, expect);
  }
}

TEST_F(SortKernelTest, BudgetTripsOnTheSameRow) {
  // Every buffered row charges num_bindings * sizeof(Slot) = 16 bytes
  // before it is kept, so a budget of 40 rows trips on row 41 — in the full
  // sort, the partial sort, the top-k heap (k above the trip row) and the
  // streaming cutoff alike.
  ObjectStore store(&db_.catalog);
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int(99 - i)});
  Load(&store, rows);
  const std::vector<SortKey> keys = {SortKey{e_, fields_[0], false}};
  const PlanNodePtr plans[] = {
      Enforced(PhysOpKind::kSort, keys, 0, 0),
      Enforced(PhysOpKind::kSort, keys, 1, 0),
      Enforced(PhysOpKind::kTopK, keys, 0, 60),
      Enforced(PhysOpKind::kTopK, keys, 1, 60),
  };
  for (const PlanNodePtr& plan : plans) {
    for (int batch : {1, 1024}) {
      SCOPED_TRACE(PrintPlan(*plan, ctx_) + " batch " + std::to_string(batch));
      GovernorOptions gopts;
      gopts.max_tracked_bytes = 40 * 16;
      QueryGovernor governor(gopts);
      auto out = Run(&store, plan, batch, 0, &governor);
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kBudgetExhausted);
      EXPECT_EQ(out.status().message(),
                "tracked memory budget exhausted: 656 bytes > 640");
    }
  }
}

TEST_F(SortKernelTest, UnloadedKeySlotIsInternalError) {
  // An unnested member binding holds only a reference: a sort key on it
  // reads a component that is not present in memory — a plan bug that must
  // surface as the typed kInternal error, in Sort and in the top-k heap.
  ObjectStore store(&db_.catalog);
  Oid task = store.Create(db_.task);
  for (int i = 0; i < 3; ++i) {
    Oid emp = store.Create(db_.employee);
    store.SetValue(emp, db_.emp_age, Value::Int(i));
    store.AddToRefSet(task, db_.task_team_members, emp);
  }
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  BindingId t = ctx.bindings.AddGet("t", db_.task);
  BindingId m =
      ctx.bindings.AddUnnest("m", db_.employee, t, db_.task_team_members);
  BindingSet scope = BindingSet::Of(t);
  scope.Add(m);
  auto node = [&](PhysicalOp op, std::vector<PlanNodePtr> children) {
    LogicalProps props;
    props.scope = scope;
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(t);
    return PlanNode::Make(std::move(op), std::move(children), props,
                          delivered, Cost{});
  };
  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Extent(db_.task);
  scan.binding = t;
  PhysicalOp unnest;
  unnest.kind = PhysOpKind::kAlgUnnest;
  unnest.source = t;
  unnest.field = db_.task_team_members;
  unnest.target = m;
  PlanNodePtr input = node(unnest, {node(scan, {})});
  for (PhysOpKind kind : {PhysOpKind::kSort, PhysOpKind::kTopK}) {
    PhysicalOp op;
    op.kind = kind;
    op.sort = SortSpec(m, db_.emp_age);
    op.limit = kind == PhysOpKind::kTopK ? 2 : 0;
    auto stats = ExecutePlan(*node(op, {input}), &store, &ctx);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
    EXPECT_EQ(stats.status().message(),
              "attribute read on component not present in memory: m");
  }
}

TEST_F(SortKernelTest, FailedOpenLeaksNoPooledBatch) {
  // A budget trip or key error inside the blocking Open() must return the
  // executor's pooled drain batch: warm up twice, then the BatchPool miss
  // counter stays flat across repeated failing runs.
  Counter* misses =
      MetricsRegistry::Global().counter("oodb_batch_pool_misses_total");
  ObjectStore store(&db_.catalog);
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int(i % 7)});
  Load(&store, rows);
  const std::vector<SortKey> keys = {SortKey{e_, fields_[0], true}};
  auto fail_both = [&] {
    for (PhysOpKind kind : {PhysOpKind::kSort, PhysOpKind::kTopK}) {
      GovernorOptions gopts;
      gopts.max_tracked_bytes = 16;
      QueryGovernor governor(gopts);
      auto out = Run(&store, Enforced(kind, keys, 0, 50), 64, 0, &governor);
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kBudgetExhausted);
    }
  };
  fail_both();
  fail_both();
  int64_t before = misses->value();
  fail_both();
  EXPECT_EQ(misses->value(), before)
      << "a failed Sort/TopK Open leaked a pooled batch arena";
}

}  // namespace
}  // namespace oodb
