#include "e2ebench/workloads.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <unordered_map>
#include <utility>

#include "src/workloads/oo7.h"
#include "src/workloads/paper_queries.h"

namespace oodb::e2e {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& v) {
  return v[rng->Uniform(v.size())];
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

/// Order-insensitive comparison key of a result row set.
std::vector<std::string> RowKeys(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::string k;
    for (const Value& v : row) k += v.KeyString() + "|";
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string RowText(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i > 0 ? ", " : "") + row[i].ToString();
  }
  return out + ")";
}

/// Compares a statement's whole result with the expected rows: as a
/// sequence when `ordered`, as a multiset otherwise.
Status CompareRows(const std::string& what,
                   const std::vector<std::vector<Value>>& got, int64_t got_rows,
                   const std::vector<std::vector<Value>>& want, bool ordered) {
  if (got_rows != static_cast<int64_t>(want.size()) ||
      got.size() != want.size()) {
    return Status::Internal(what + ": " + std::to_string(got_rows) +
                            " rows (" + std::to_string(got.size()) +
                            " kept), expected " + std::to_string(want.size()));
  }
  if (ordered) {
    for (size_t i = 0; i < want.size(); ++i) {
      if (!(got[i] == want[i])) {
        return Status::Internal(what + ": row " + std::to_string(i) + " is " +
                                RowText(got[i]) + ", expected " +
                                RowText(want[i]));
      }
    }
    return Status::OK();
  }
  if (RowKeys(got) != RowKeys(want)) {
    return Status::Internal(what + ": rows differ from the population");
  }
  return Status::OK();
}

void CollectKinds(const PlanNode& plan, std::vector<PhysOpKind>* out) {
  out->push_back(plan.op.kind);
  for (const PlanNodePtr& c : plan.children) CollectKinds(*c, out);
}

int CountKind(const PlanNode& plan, PhysOpKind kind) {
  std::vector<PhysOpKind> kinds;
  CollectKinds(plan, &kinds);
  return static_cast<int>(std::count(kinds.begin(), kinds.end(), kind));
}

bool PlanHas(const PlanNode& plan, const QueryContext& ctx,
             const std::string& needle) {
  for (const std::string& op : PlanOpStrings(plan, ctx)) {
    if (op.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// plan-cold: Session::Prepare over the paper's Table-1 catalog.

/// Paper Query n's plan features (§4): Figure 6 for Q1, the collapse to an
/// index scan for Q2, index scan plus assembly enforcer for Q3.
Status CheckPaperFeatures(int query, const SessionResult& r) {
  const PlanNode& plan = *r.optimized.plan;
  std::vector<std::string> missing;
  auto need = [&](bool ok, const std::string& what) {
    if (!ok) missing.push_back(what);
  };
  if (query == 1) {
    need(CountKind(plan, PhysOpKind::kHybridHashJoin) == 2, "2 hash joins");
    need(CountKind(plan, PhysOpKind::kAssembly) == 1, "1 assembly");
    for (const char* op :
         {"Assembly e.dept.plant", "File Scan extent(Department)",
          "File Scan extent(Job)", "File Scan Employees",
          "Filter e.dept.plant.location"}) {
      need(PlanHas(plan, r.ctx, op), op);
    }
  } else if (query == 2) {
    need(CountKind(plan, PhysOpKind::kIndexScan) == 1, "1 index scan");
    need(CountKind(plan, PhysOpKind::kAssembly) == 0, "no assembly");
    need(PlanHas(plan, r.ctx, "Index Scan Cities"), "Index Scan Cities");
  } else {
    std::vector<PhysOpKind> kinds;
    CollectKinds(plan, &kinds);
    need(kinds == std::vector<PhysOpKind>{PhysOpKind::kAlgProject,
                                          PhysOpKind::kAssembly,
                                          PhysOpKind::kIndexScan},
         "Alg-Project over Assembly over Index Scan");
  }
  if (missing.empty()) return Status::OK();
  std::string msg = "Q" + std::to_string(query) + " plan lacks:";
  for (const std::string& m : missing) msg += " [" + m + "]";
  return Status::Internal(msg + "\n" + r.PlanText());
}

std::string ChainQuery(int width) {
  std::string text = "SELECT e1.name FROM Employee e1 IN Employees";
  for (int i = 2; i <= width; ++i) {
    text += ", Employee e" + std::to_string(i) + " IN Employees";
  }
  text += " WHERE ";
  for (int i = 2; i <= width; ++i) {
    if (i > 2) text += " && ";
    text += "e1.name == e" + std::to_string(i) + ".name";
  }
  return text + ";";
}

class PlanColdWorkload : public Workload {
 public:
  PlanColdWorkload() {
    name_ = "plan-cold";
    classes_ = {"Q1",       "Q2",     "Q3",     "Q4",
                "complex4", "chain3", "chain4", "chain5"};
    executes_ = false;
  }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    auto t0 = std::chrono::steady_clock::now();
    db_ = std::make_unique<PaperDb>(MakePaperCatalog());
    times->populate_s = SecondsSince(t0);
    Session::Options opts;
    // Fewer entries than distinct statements, and each round sends them in
    // the same cyclic order: every Prepare misses, inserts and evicts.
    opts.optimizer.plan_cache_capacity = 1;
    session_ = std::make_unique<Session>(&db_->catalog, opts);

    Rng rng(seed);
    const std::vector<std::string> cities = {"Dallas", "Austin", "Houston",
                                             "Boston", "Denver", "Seattle"};
    const std::vector<std::string> names = {"Joe", "Ann", "Bob",
                                            "Sue", "Tom", "Kim"};
    std::vector<std::string> texts(classes_.size());
    texts[0] =
        "SELECT e.name, e.job.name, e.dept.name FROM Employee e IN Employees "
        "WHERE e.dept.plant.location == " + Quote(Pick(&rng, cities)) + ";";
    texts[1] = "SELECT c FROM City c IN Cities WHERE c.mayor.name == " +
               Quote(Pick(&rng, names)) + ";";
    texts[2] =
        "SELECT c.mayor.age, c.name FROM City c IN Cities "
        "WHERE c.mayor.name == " + Quote(Pick(&rng, names)) + ";";
    texts[3] =
        "SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
        "WHERE e.name == " + Quote(Pick(&rng, names)) +
        " && t.time == " + std::to_string(rng.UniformRange(50, 150)) + ";";
    // bench_opt_perf's "moderately complex" query: four ranges, a
    // set-valued path and five predicates. Only equality literals are
    // drawn: a range literal would move the plan's cost with the seed.
    texts[4] =
        "SELECT e.name, d.name, t.name "
        "FROM Employee e IN Employees, Department d IN Department, "
        "Task t IN Tasks, Employee m IN t.team_members "
        "WHERE e.dept == d && d.floor == " +
        std::to_string(rng.UniformRange(1, 9)) +
        " && e.age >= 32 && t.time == " +
        std::to_string(rng.UniformRange(50, 150)) + " && m.name == e.name;";
    for (int w = 3; w <= 5; ++w) texts[2 + w] = ChainQuery(w);

    // A fixed order: what precedes a cheap statement (a 400 ms chain5
    // leaves cold caches behind) must not change with the seed.
    round_.clear();
    for (size_t cls = 0; cls < texts.size(); ++cls) {
      round_.push_back({static_cast<int>(cls), texts[cls]});
    }
    facts_ = {{"plan_cache_capacity", 1.0},
              {"distinct_statements", static_cast<double>(round_.size())}};
    return Status::OK();
  }

  bool QuickCheck(size_t /*stmt*/, const SessionResult& r) const override {
    const SearchStats& st = r.optimized.stats;
    return r.optimized.plan != nullptr && !st.plan_cached && !st.degraded &&
           st.verify_error.empty();
  }

  void CheckPass(std::vector<Status>* checks,
                 std::vector<StmtCounts>* counts) override {
    for (const Stmt& s : round_) {
      Result<SessionResult> r = Run(s.zql);
      if (!r.ok()) {
        checks->push_back(r.status());
        counts->emplace_back();
        continue;
      }
      counts->push_back(
          CountsOf(r->optimized, executes_ ? &r->exec : nullptr));
      const std::string& cls = classes_[s.cls];
      Status verified = VerifyPlan(*r->optimized.plan, r->ctx);
      checks->push_back(verified.ok() ? verified
                                      : Status::Internal(cls + ": " +
                                                         verified.ToString()));
      if (Status greedy = CheckAgainstGreedy(s, *r);
          greedy.code() != StatusCode::kUnimplemented) {
        checks->push_back(greedy);
      }
      if (s.cls <= 2) checks->push_back(CheckPaperFeatures(s.cls + 1, *r));
    }
  }

 private:
  /// The chosen plan must cost no more than the greedy baseline's plan for
  /// the same statement. kUnimplemented when the greedy planner cannot plan
  /// the statement at all (it handles single-collection chains only, so the
  /// join chains and the complex query have no baseline).
  Status CheckAgainstGreedy(const Stmt& s, const SessionResult& r) const {
    QueryContext ctx;
    ctx.catalog = &db_->catalog;
    SortSpec order;
    int64_t limit = 0;
    Result<LogicalExprPtr> logical = ParseAndSimplify(s.zql, &ctx, &order,
                                                      &limit);
    if (!logical.ok()) return logical.status();
    PhysProps required;
    required.sort = order;
    required.limit = limit;
    GreedyOptimizer greedy(&db_->catalog);
    Result<OptimizedQuery> g = greedy.Optimize(**logical, &ctx, required);
    if (g.status().code() == StatusCode::kUnimplemented) return g.status();
    if (!g.ok()) {
      return Status::Internal(classes_[s.cls] + ": greedy baseline: " +
                              g.status().ToString());
    }
    const double chosen = r.optimized.cost.total();
    const double baseline = g->cost.total();
    if (chosen > baseline * (1.0 + 1e-9)) {
      return Status::Internal(classes_[s.cls] + ": plan cost " +
                              std::to_string(chosen) + " > greedy " +
                              std::to_string(baseline));
    }
    return Status::OK();
  }

  std::unique_ptr<PaperDb> db_;
};

// ---------------------------------------------------------------------------
// OO7: oo7-analytic, oo7-parallel and point-cached.

/// 400 composite parts x 120 atomic parts = 48,000 atomic parts, as in
/// bench_exec.
Oo7Options Oo7Config(uint64_t seed) {
  Oo7Options o;
  o.seed = seed;
  o.num_composite_parts = 400;
  o.atomic_per_composite = 120;
  o.complex_per_module = 4;
  o.base_per_complex = 8;
  o.num_build_dates = 10;
  return o;
}

/// Buffer-pool frames. The store at Oo7Config's scale spans more than twice
/// as many pages (checked at setup), so full scans evict.
constexpr int64_t kBufferPages = 256;
/// Plan-cache entries: room for every OO7 statement's plan.
constexpr size_t kOo7CacheCapacity = 64;
/// Literal draws per class in one point-cached round.
constexpr int kPointDraws = 16;
constexpr int kTopK = 10;

enum class Oo7Mode { kAnalytic, kParallel, kPoint };

/// What a statement asks, so the expected rows can be computed from the
/// population without the optimizer.
struct Oo7Spec {
  enum Kind {
    kJoin,        // a.id, p.id where a.partOf == p && a.x > x && a.y < y
                  //   && p.buildDate >= d
    kTraversal,   // module -> design root -> subassemblies -> components
                  //   -> parts, a.x > a.y
    kNewer,       // base assemblies with a newer component
    kSort,        // every atomic part ORDER BY buildDate, id
    kTopK,        // the same, LIMIT kTopK
    kExactId,     // atomic part by id (index)
    kDocTitle,    // composite parts by documentation title (path index)
    kBaseDate,    // base assemblies by build date (index)
  } kind;
  int64_t x = 0, y = 0, d = 0;
};

/// The generated population, read back from the store without charging
/// simulated I/O.
struct Oo7Population {
  struct Atomic {
    int64_t id, x, y, date;
    size_t comp;
  };
  struct Composite {
    int64_t id, date;
    std::string title;
    std::vector<size_t> parts;
  };
  struct Base {
    int64_t id, date;
    std::vector<size_t> comps;
  };
  std::vector<Atomic> atomics;
  std::vector<Composite> comps;
  std::vector<Base> bases;
  std::vector<size_t> design_root_bases;  // module 0's traversal
};

class Oo7Workload : public Workload {
 public:
  explicit Oo7Workload(Oo7Mode mode) : mode_(mode) {
    switch (mode) {
      case Oo7Mode::kAnalytic: name_ = "oo7-analytic"; break;
      case Oo7Mode::kParallel:
        name_ = "oo7-parallel";
        exact_io_ = false;
        break;
      case Oo7Mode::kPoint: name_ = "point-cached"; break;
    }
  }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    const Oo7Options config = Oo7Config(seed);
    auto t0 = std::chrono::steady_clock::now();
    db_ = MakeOo7Catalog(config);
    Session::Options opts;
    opts.store.buffer_pages = kBufferPages;
    opts.optimizer.plan_cache_capacity = kOo7CacheCapacity;
    opts.optimizer.max_dop = mode_ == Oo7Mode::kParallel ? 2 : 1;
    session_ = std::make_unique<Session>(&db_->catalog, opts);
    OODB_RETURN_IF_ERROR(PopulateOo7(db_.get(), &session_->store(), config));
    times->populate_s = SecondsSince(t0);
    auto t1 = std::chrono::steady_clock::now();
    OODB_RETURN_IF_ERROR(session_->Analyze());
    times->analyze_s = SecondsSince(t1);

    const ObjectStore& store = session_->store();
    PageId last = 0;
    for (Oid oid = 0; oid < store.num_objects(); ++oid) {
      last = std::max(last, store.PageOf(oid));
    }
    const int64_t store_pages = static_cast<int64_t>(last) + 1;
    if (store_pages < 2 * kBufferPages) {
      return Status::Internal("store has " + std::to_string(store_pages) +
                              " pages, under twice the buffer pool");
    }
    BuildRound(seed);
    population_.reset();
    expected_rows_.clear();
    facts_ = {
        {"atomic_parts", static_cast<double>(db_->atomic_parts.size())},
        {"objects", static_cast<double>(store.num_objects())},
        {"store_pages", static_cast<double>(store_pages)},
        {"buffer_pages", static_cast<double>(kBufferPages)},
        {"plan_cache_capacity", static_cast<double>(kOo7CacheCapacity)},
        {"distinct_statements", static_cast<double>(round_.size())},
        {"max_dop", static_cast<double>(opts.optimizer.max_dop)}};
    return Status::OK();
  }

  bool QuickCheck(size_t stmt, const SessionResult& r) const override {
    return stmt < expected_rows_.size() && r.exec.rows == expected_rows_[stmt];
  }

  void CheckPass(std::vector<Status>* checks,
                 std::vector<StmtCounts>* counts) override {
    if (population_ == nullptr) ReadPopulation();
    Session::Options& opts = session_->options();
    const int kept = opts.exec.sample_limit;
    opts.exec.sample_limit = INT_MAX;  // whole result sets
    expected_rows_.assign(round_.size(), -1);
    std::vector<std::vector<Value>> sorted;  // the full ORDER BY's output
    for (size_t i = 0; i < round_.size(); ++i) {
      const std::string& cls = classes_[round_[i].cls];
      Result<SessionResult> r = Run(round_[i].zql);
      if (!r.ok()) {
        checks->push_back(Status::Internal(cls + ": " + r.status().ToString()));
        counts->emplace_back();
        continue;
      }
      counts->push_back(
          CountsOf(r->optimized, executes_ ? &r->exec : nullptr));
      const Oo7Spec& spec = specs_[i];
      std::vector<std::vector<Value>> want = Expected(spec);
      expected_rows_[i] = static_cast<int64_t>(want.size());
      const bool ordered =
          spec.kind == Oo7Spec::kSort || spec.kind == Oo7Spec::kTopK;
      checks->push_back(
          CompareRows(cls, r->rows(), r->exec.rows, want, ordered));
      if (spec.kind == Oo7Spec::kSort) {
        sorted = r->rows();
      } else if (spec.kind == Oo7Spec::kTopK) {
        // LIMIT k must return the first k rows of the unlimited order (the
        // sort statement precedes this one in every round).
        std::vector<std::vector<Value>> prefix(
            sorted.begin(),
            sorted.begin() + std::min<size_t>(sorted.size(), kTopK));
        checks->push_back(
            prefix.size() == static_cast<size_t>(kTopK) &&
                    r->rows() == prefix
                ? Status::OK()
                : Status::Internal(cls + ": LIMIT " + std::to_string(kTopK) +
                                   " is not a prefix of the ORDER BY output"));
      }
    }
    opts.exec.sample_limit = kept;
  }

 private:
  void BuildRound(uint64_t seed) {
    round_.clear();
    specs_.clear();
    auto add = [&](int cls, std::string zql, Oo7Spec spec) {
      round_.push_back({cls, std::move(zql)});
      specs_.push_back(spec);
    };
    if (mode_ != Oo7Mode::kPoint) {
      classes_ = {"selective-join", "join", "traversal", "newer",
                  "sort", "top10"};
      const std::string join =
          "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
          "CompositePart p IN CompositeParts WHERE a.partOf == p && ";
      add(0, join + "a.x > 990 && a.y < 10 && p.buildDate >= 2;",
          {Oo7Spec::kJoin, 990, 10, 2});
      add(1, join + "a.x > 100 && a.y < 900 && p.buildDate >= 2;",
          {Oo7Spec::kJoin, 100, 900, 2});
      add(2, kOo7QueryTraversal, {Oo7Spec::kTraversal});
      add(3, kOo7QueryNewerComponents, {Oo7Spec::kNewer});
      const std::string sort =
          "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
          "WHERE a.x >= 0 ORDER BY a.buildDate, a.id";
      add(4, sort + ";", {Oo7Spec::kSort});
      add(5, sort + " LIMIT " + std::to_string(kTopK) + ";", {Oo7Spec::kTopK});
      return;
    }
    classes_ = {"exact-id", "doc-title", "base-date"};
    const Oo7Options config = Oo7Config(seed);
    const int64_t atomics = static_cast<int64_t>(config.num_composite_parts) *
                            config.atomic_per_composite;
    Rng rng(seed ^ 0x5eedf00dull);
    for (int i = 0; i < kPointDraws; ++i) {
      const int64_t id = rng.UniformRange(0, atomics - 1);
      add(0, Oo7QueryExactMatch(id), {Oo7Spec::kExactId, 0, 0, id});
      const int64_t title = rng.UniformRange(0, config.num_doc_titles - 1);
      add(1, Oo7QueryByDocTitle("Doc" + std::to_string(title)),
          {Oo7Spec::kDocTitle, 0, 0, title});
      const int64_t date = rng.UniformRange(0, config.num_build_dates - 1);
      add(2,
          "SELECT b.id FROM BaseAssembly b IN BaseAssemblies "
          "WHERE b.buildDate == " + std::to_string(date) + ";",
          {Oo7Spec::kBaseDate, 0, 0, date});
    }
  }

  void ReadPopulation() {
    ObjectStore& store = session_->store();
    auto peek = [&](Oid oid) -> const ObjectData& {
      return **store.Peek(oid);
    };
    auto pop = std::make_unique<Oo7Population>();
    std::unordered_map<Oid, size_t> comp_index, atomic_index, base_index;
    for (size_t i = 0; i < db_->composite_parts.size(); ++i) {
      const ObjectData& c = peek(db_->composite_parts[i]);
      comp_index[c.oid] = i;
      pop->comps.push_back({c.value(db_->comp_id).i,
                            c.value(db_->comp_build_date).i,
                            peek(c.ref(db_->comp_doc)).value(db_->doc_title).s,
                            {}});
    }
    for (size_t i = 0; i < db_->atomic_parts.size(); ++i) {
      const ObjectData& a = peek(db_->atomic_parts[i]);
      atomic_index[a.oid] = i;
      pop->atomics.push_back({a.value(db_->atomic_id).i,
                              a.value(db_->atomic_x).i,
                              a.value(db_->atomic_y).i,
                              a.value(db_->atomic_build_date).i,
                              comp_index.at(a.ref(db_->atomic_part_of))});
    }
    // Each of these types has exactly one set-valued field (ref_sets[0]).
    for (size_t i = 0; i < db_->composite_parts.size(); ++i) {
      for (Oid a : peek(db_->composite_parts[i]).ref_sets[0]) {
        pop->comps[i].parts.push_back(atomic_index.at(a));
      }
    }
    for (size_t i = 0; i < db_->base_assemblies.size(); ++i) {
      const ObjectData& b = peek(db_->base_assemblies[i]);
      base_index[b.oid] = i;
      Oo7Population::Base base{b.value(db_->base_id).i,
                               b.value(db_->base_build_date).i, {}};
      for (Oid c : b.ref_sets[0]) base.comps.push_back(comp_index.at(c));
      pop->bases.push_back(std::move(base));
    }
    const ObjectData& module = peek(db_->modules.at(0));
    const ObjectData& root = peek(module.ref(db_->module_design_root));
    for (Oid b : root.ref_sets[0]) {
      pop->design_root_bases.push_back(base_index.at(b));
    }
    population_ = std::move(pop);
  }

  std::vector<std::vector<Value>> Expected(const Oo7Spec& s) const {
    const Oo7Population& p = *population_;
    std::vector<std::vector<Value>> rows;
    auto row = [&](std::initializer_list<int64_t> vals) {
      std::vector<Value> r;
      for (int64_t v : vals) r.push_back(Value::Int(v));
      rows.push_back(std::move(r));
    };
    switch (s.kind) {
      case Oo7Spec::kJoin:
        for (const auto& a : p.atomics) {
          const auto& c = p.comps[a.comp];
          if (a.x > s.x && a.y < s.y && c.date >= s.d) row({a.id, c.id});
        }
        break;
      case Oo7Spec::kTraversal:
        for (size_t b : p.design_root_bases) {
          for (size_t c : p.bases[b].comps) {
            for (size_t a : p.comps[c].parts) {
              if (p.atomics[a].x > p.atomics[a].y) row({p.atomics[a].id});
            }
          }
        }
        break;
      case Oo7Spec::kNewer:
        for (const auto& b : p.bases) {
          for (size_t c : b.comps) {
            if (p.comps[c].date > b.date) row({b.id});
          }
        }
        break;
      case Oo7Spec::kSort:
      case Oo7Spec::kTopK: {
        std::vector<std::pair<int64_t, int64_t>> keys;  // (date, id)
        for (const auto& a : p.atomics) {
          if (a.x >= 0) keys.push_back({a.date, a.id});
        }
        std::sort(keys.begin(), keys.end());
        if (s.kind == Oo7Spec::kTopK && keys.size() > kTopK) {
          keys.resize(kTopK);
        }
        for (const auto& [date, id] : keys) row({id, date});
        break;
      }
      case Oo7Spec::kExactId:
        for (const auto& a : p.atomics) {
          if (a.id == s.d) row({a.x, a.y});
        }
        break;
      case Oo7Spec::kDocTitle:
        for (const auto& c : p.comps) {
          if (c.title == "Doc" + std::to_string(s.d)) row({c.id});
        }
        break;
      case Oo7Spec::kBaseDate:
        for (const auto& b : p.bases) {
          if (b.date == s.d) row({b.id});
        }
        break;
    }
    return rows;
  }

  Oo7Mode mode_;
  std::unique_ptr<Oo7Db> db_;
  std::vector<Oo7Spec> specs_;
  std::unique_ptr<Oo7Population> population_;
  std::vector<int64_t> expected_rows_;  // per round statement
};

}  // namespace

std::vector<std::string> StmtCounts::Diff(const StmtCounts& o,
                                          bool exact_io) const {
  std::vector<std::string> out;
  auto cmp = [&](bool same, const char* name) {
    if (!same) out.push_back(name);
  };
  cmp(sim_cpu_s == o.sim_cpu_s, "sim_cpu_s");
  cmp(rows == o.rows, "rows");
  cmp(dop == o.dop, "dop");
  cmp(groups == o.groups, "groups");
  cmp(logical_mexprs == o.logical_mexprs, "logical_mexprs");
  cmp(phys_alternatives == o.phys_alternatives, "phys_alternatives");
  cmp(transformation_firings == o.transformation_firings,
      "transformation_firings");
  cmp(impl_firings == o.impl_firings, "impl_firings");
  cmp(enforcer_firings == o.enforcer_firings, "enforcer_firings");
  if (exact_io) {
    cmp(sim_s == o.sim_s, "sim_s");
    cmp(sim_io_s == o.sim_io_s, "sim_io_s");
    cmp(pages_read == o.pages_read, "pages_read");
    cmp(seq_reads == o.seq_reads, "seq_reads");
    cmp(random_reads == o.random_reads, "random_reads");
    cmp(buffer_hits == o.buffer_hits, "buffer_hits");
    cmp(batch_pool_misses == o.batch_pool_misses, "batch_pool_misses");
  }
  return out;
}

StmtCounts CountsOf(const OptimizedQuery& q, const ExecStats* exec) {
  StmtCounts c;
  const SearchStats& st = q.stats;
  c.groups = st.groups;
  c.logical_mexprs = st.logical_mexprs;
  c.phys_alternatives = st.phys_alternatives;
  c.transformation_firings = st.transformation_firings;
  c.impl_firings = st.impl_firings;
  c.enforcer_firings = st.enforcer_firings;
  if (exec == nullptr) {
    c.sim_s = q.cost.total();
    return c;
  }
  const ExecStats& e = *exec;
  c.sim_s = e.sim_total_s();
  c.sim_cpu_s = e.sim_cpu_s;
  c.sim_io_s = e.sim_io_s;
  c.rows = e.rows;
  c.pages_read = e.pages_read;
  c.seq_reads = e.seq_reads;
  c.random_reads = e.random_reads;
  c.buffer_hits = e.buffer_hits;
  c.dop = e.dop;
  return c;
}

Result<SessionResult> Workload::Run(const std::string& zql) {
  return executes_ ? session_->Query(zql) : session_->Prepare(zql);
}

double Workload::SimSeconds(const SessionResult& r) const {
  return executes_ ? r.exec.sim_total_s() : r.optimized.cost.total();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "plan-cold", "oo7-analytic", "oo7-parallel", "point-cached"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "plan-cold") return std::make_unique<PlanColdWorkload>();
  if (name == "oo7-analytic") {
    return std::make_unique<Oo7Workload>(Oo7Mode::kAnalytic);
  }
  if (name == "oo7-parallel") {
    return std::make_unique<Oo7Workload>(Oo7Mode::kParallel);
  }
  if (name == "point-cached") {
    return std::make_unique<Oo7Workload>(Oo7Mode::kPoint);
  }
  return nullptr;
}

}  // namespace oodb::e2e
