// Cross-strategy differential fuzzer — the repo's first randomized
// property harness.
//
// Every iteration generates a dataset from a seeded recipe (skewed zipf /
// uniform bipartite / community graph; self join or two distinct
// relations; plain or counted with min_count; auto or pinned thresholds)
// and checks that every evaluation strategy produces BYTE-IDENTICAL sorted
// output:
//
//   two-path: sequential WCOJ (WcojFullJoinProject) is the reference; WCOJ,
//             MM (auto + forced dense / csr-dense / csr-csr heavy paths +
//             forced density-partitioned grid) and Non-MM run through
//             QueryEngine and must match at threads {1, 3, hw}. A self join
//             runs in both catalog forms: one name (one snapshot, r and s
//             are one object) and the same relation under two names (two
//             snapshots with equal content).
//   star:     WCOJ reference vs MM (every forced kernel x partition
//             {off, force}, and under a small memory cap) and Non-MM star
//             joins through QueryEngine, each run twice per thread count on
//             one PreparedQuery so repeats hit the operand memo (a quarter
//             of the iterations; k in {2, 3, 4}); triangle: the MM count
//             under every kernel mode vs the node iterator on the
//             instance's symmetric closure.
//   set join: SSJ (random c in 1..4, unordered and ordered) and SCJ
//             through QueryEngine under every strategy vs the brute-force
//             set-join oracles (every 2nd iteration).
//   isa:      the same recipes re-run under every host-supported kernel
//             dispatch level (ScopedIsaOverride; common/cpu_features.h) —
//             the explicit AVX2/AVX-512 kernels must stay byte-identical
//             to the scalar oracle, end-to-end and at the kernel level.
//
// Knobs (see docs/testing.md for the seed policy):
//   JPMM_FUZZ_ITERS     iterations (default 50 — the fixed tier-1 budget;
//                       nightly CI runs 500)
//   JPMM_FUZZ_SEED      base seed (default fixed so tier-1 is reproducible;
//                       iteration i uses base + i)
//   JPMM_FUZZ_ARTIFACT  failing-seed repro file (default
//                       differential_fuzz_failures.txt; one line per
//                       mismatch, enough to rerun that exact iteration)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cancel_token.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "core/star_join.h"
#include "core/triangle.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::RandomRelation;

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoi(v);
}

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

std::string ArtifactPath() {
  const char* v = std::getenv("JPMM_FUZZ_ARTIFACT");
  return (v == nullptr || *v == '\0') ? "differential_fuzz_failures.txt" : v;
}

// One iteration's full recipe — everything needed to rerun it.
struct FuzzConfig {
  uint64_t seed = 0;
  int shape = 0;  // 0 zipf-skewed, 1 uniform bipartite, 2 community graph
  bool self_join = true;
  bool counted = false;
  uint32_t min_count = 1;
  Thresholds thresholds{0, 0};  // {0,0} = optimizer-chosen

  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu shape=%d self=%d counted=%d min_count=%u "
                  "thresholds={%llu,%llu}",
                  static_cast<unsigned long long>(seed), shape,
                  self_join ? 1 : 0, counted ? 1 : 0, min_count,
                  static_cast<unsigned long long>(thresholds.delta1),
                  static_cast<unsigned long long>(thresholds.delta2));
    return buf;
  }
};

FuzzConfig MakeConfig(uint64_t seed) {
  Rng rng(seed);
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.shape = static_cast<int>(rng.Next() % 3);
  cfg.self_join = rng.Next() % 2 == 0;
  cfg.counted = rng.Next() % 2 == 0;
  cfg.min_count = cfg.counted ? 1 + static_cast<uint32_t>(rng.Next() % 3) : 1;
  // A third of the runs pin tiny thresholds so the heavy part (and the
  // forced dense/sparse kernels) really execute on small data.
  switch (rng.Next() % 3) {
    case 0:
      cfg.thresholds = Thresholds{1, 1};
      break;
    case 1:
      cfg.thresholds = Thresholds{2, 4};
      break;
    default:
      cfg.thresholds = Thresholds{0, 0};
      break;
  }
  return cfg;
}

BinaryRelation MakeRelation(const FuzzConfig& cfg, uint64_t salt) {
  Rng rng(cfg.seed ^ (salt * 0x9E3779B97F4A7C15ull));
  switch (cfg.shape) {
    case 0: {
      const uint32_t nx = 30 + static_cast<uint32_t>(rng.Next() % 120);
      const uint32_t ny = 30 + static_cast<uint32_t>(rng.Next() % 120);
      const uint32_t nt = 60 + static_cast<uint32_t>(rng.Next() % 800);
      const double skew = 0.7 + 0.1 * static_cast<double>(rng.Next() % 6);
      return RandomRelation(nx, ny, nt, skew, rng.Next());
    }
    case 1: {
      const uint32_t nx = 40 + static_cast<uint32_t>(rng.Next() % 100);
      const uint32_t ny = 20 + static_cast<uint32_t>(rng.Next() % 60);
      const uint32_t nt = 80 + static_cast<uint32_t>(rng.Next() % 700);
      return UniformBipartite(nx, ny, nt, rng.Next());
    }
    default: {
      const uint32_t comms = 2 + static_cast<uint32_t>(rng.Next() % 3);
      const uint32_t size = 20 + static_cast<uint32_t>(rng.Next() % 30);
      const double p = 0.2 + 0.1 * static_cast<double>(rng.Next() % 4);
      return CommunityGraph(comms, size, p, rng.Next());
    }
  }
}

// The catalog forms a recipe's two-path query runs under. A self join
// runs under both of its forms: the relation under one catalog name (one
// snapshot, so r and s are one object) and under two names with equal
// content (two snapshots: the asymmetric path). Two distinct relations
// have the one two-name form.
struct RelationForm {
  const char* name;
  std::vector<std::string> relations;
};

std::vector<RelationForm> Forms(const FuzzConfig& cfg) {
  if (!cfg.self_join) return {{"two-relations", {"R", "S"}}};
  return {{"self-one-name", {"R"}}, {"self-two-names", {"R", "S"}}};
}

// Relations up to this many tuples are small enough for the brute-force
// oracle, which then checks the reference itself.
constexpr size_t kOracleMaxTuples = 2000;

// A recipe's two-path instance: its relations in one engine, "R" and "S"
// ("S" a copy of "R" for a self join), one PreparedQuery per form, and the
// reference output (sequential WCOJ full join + dedup, sorted). The
// reference runs the library's own WCOJ executor, so on every small enough
// instance it must first equal the brute-force oracle.
struct TwoPathInstance {
  explicit TwoPathInstance(const FuzzConfig& cfg) {
    const BinaryRelation r = MakeRelation(cfg, 1);
    const BinaryRelation s = cfg.self_join ? r : MakeRelation(cfg, 2);
    engine.AddRelation("R", r);
    engine.AddRelation("S", s);
    const IndexedRelation ri(r);
    if (cfg.self_join) {
      ref = testutil::WcojReference(ri, ri, cfg.counted, cfg.min_count);
    } else {
      const IndexedRelation si(s);
      ref = testutil::WcojReference(ri, si, cfg.counted, cfg.min_count);
    }
    if (r.size() <= kOracleMaxTuples && s.size() <= kOracleMaxTuples) {
      testutil::SortedOutput oracle;
      if (cfg.counted) {
        oracle.counted = testutil::OracleTwoPathCounted(r, s, cfg.min_count);
      } else {
        oracle.pairs = testutil::OracleTwoPath(r, s);
      }
      EXPECT_EQ(ref, oracle) << "WCOJ reference != brute-force oracle: "
                             << cfg.ToString();
    }
    for (const RelationForm& form : Forms(cfg)) {
      QuerySpec spec;
      spec.kind = QueryKind::kTwoPath;
      spec.relations = form.relations;
      spec.count_witnesses = cfg.counted;
      spec.min_count = cfg.min_count;
      PreparedQuery q;
      const QueryStatus st = engine.Prepare(spec, &q);
      EXPECT_TRUE(st.ok()) << st.message();
      forms.emplace_back(form, std::move(q));
    }
  }

  QueryEngine engine;
  testutil::SortedOutput ref;
  std::vector<std::pair<RelationForm, PreparedQuery>> forms;
};

// Every two-path strategy/heavy-path variant the harness crosses. Adding a
// strategy = adding a row here (docs/testing.md documents the recipe).
struct Variant {
  const char* name;
  Strategy strategy;
  HeavyPathMode heavy_path;
  PartitionMode partition = PartitionMode::kOff;
};

const Variant kTwoPathVariants[] = {
    {"wcoj", Strategy::kWcojFull, HeavyPathMode::kAuto},
    {"nonmm", Strategy::kNonMmJoin, HeavyPathMode::kAuto},
    {"mm-auto", Strategy::kMmJoin, HeavyPathMode::kAuto},
    {"mm-dense", Strategy::kMmJoin, HeavyPathMode::kForceDense},
    {"mm-csr-dense", Strategy::kMmJoin, HeavyPathMode::kForceCsrDense},
    {"mm-csr-csr", Strategy::kMmJoin, HeavyPathMode::kForceCsrCsr},
    // Density-adaptive decomposition forced on: the degree-remapped block
    // grid must stay byte-identical to every uniform-plan variant.
    {"mm-density", Strategy::kMmJoin, HeavyPathMode::kAuto,
     PartitionMode::kForce},
};

// The execution options of variant `v` at `threads` under the recipe's
// thresholds.
ExecOptions VariantExec(const FuzzConfig& cfg, const Variant& v, int threads) {
  ExecOptions exec;
  exec.strategy_override = v.strategy;
  exec.heavy_path = v.heavy_path;
  exec.partition = v.partition;
  exec.threads = threads;
  exec.thresholds = cfg.thresholds;
  return exec;
}

void RecordFailure(const std::string& line) {
  std::FILE* f = std::fopen(ArtifactPath().c_str(), "a");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
}

std::vector<int> ThreadCounts() {
  std::vector<int> threads{1, 3};
  const int hw = HardwareThreads();
  if (hw != 1 && hw != 3) threads.push_back(hw);
  return threads;
}

TEST(DifferentialFuzz, TwoPathCrossStrategyAgreement) {
  const int iters = EnvInt("JPMM_FUZZ_ITERS", 50);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726);
  const std::vector<int> threads = ThreadCounts();

  for (int i = 0; i < iters; ++i) {
    const FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    TwoPathInstance inst(cfg);

    for (const Variant& v : kTwoPathVariants) {
      for (int t : threads) {
        for (auto& [form, q] : inst.forms) {
          const testutil::EngineRun got =
              testutil::ExecuteSorted(inst.engine, q, VariantExec(cfg, v, t));
          if (static_cast<const testutil::SortedOutput&>(got) != inst.ref) {
            const std::string line =
                cfg.ToString() + " form=" + form.name + " variant=" +
                v.name + " threads=" + std::to_string(t) +
                " got=" + std::to_string(got.size()) +
                " want=" + std::to_string(inst.ref.size());
            RecordFailure(line);
            ADD_FAILURE() << "cross-strategy mismatch: " << line
                          << "\nrepro: JPMM_FUZZ_SEED="
                          << (base + static_cast<uint64_t>(i))
                          << " JPMM_FUZZ_ITERS=1 ./differential_fuzz_test";
            return;  // one repro line per run is enough to bisect
          }
        }
      }
    }
  }
}

// ---- Random-deadline recipe ---------------------------------------------
//
// Truncation must never corrupt: under a randomly placed deadline (from
// pre-expired to generous) every delivered pair is a REAL output pair with
// its EXACT witness count, delivered at most once; an un-interrupted run
// is byte-identical to the oracle; a paginated consumer sees a truncated
// page, never a wrong one. Triangle is excluded (it delivers a count, not
// pairs — its partial-count exactness is covered by query_deadline_test).

TEST(DifferentialFuzz, RandomDeadlineTruncationIsNeverWrong) {
  const int iters = EnvInt("JPMM_FUZZ_ITERS", 50);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0xDEADull;
  const std::vector<int> threads = ThreadCounts();

  for (int i = 0; i < iters; ++i) {
    const FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    TwoPathInstance inst(cfg);
    Rng rng(cfg.seed ^ 0xD1A5ull);

    // Oracle: the reference run, no token.
    std::map<std::pair<Value, Value>, uint32_t> oracle;
    for (const CountedPair& p : inst.ref.counted) oracle[{p.x, p.z}] = p.count;
    for (const OutPair& p : inst.ref.pairs) oracle[{p.x, p.z}] = 1;

    for (const Variant& v : kTwoPathVariants) {
      for (int t : threads) {
        // Deadline placement, the same for every form: a third
        // pre-expired, a third microscopic (fires mid-run on most
        // machines), a third generous.
        const uint64_t placement = rng.Next() % 3;
        const uint64_t us = placement == 1 ? rng.Next() % 500 : 0;
        for (auto& [form, q] : inst.forms) {
          CancelToken token;
          if (placement == 0) {
            token.SetDeadlineAfter(0);
          } else if (placement == 1) {
            token.SetDeadline(std::chrono::steady_clock::now() +
                              std::chrono::microseconds(us));
          } else {
            token.SetDeadlineAfter(60 * 1000);
          }
          ExecOptions exec = VariantExec(cfg, v, t);
          exec.cancel = &token;
          const testutil::EngineRun got =
              testutil::ExecuteSorted(inst.engine, q, exec);

          std::string problem;
          std::set<std::pair<Value, Value>> seen;
          const size_t n = got.size();
          for (size_t j = 0; j < n && problem.empty(); ++j) {
            const Value x = cfg.counted ? got.counted[j].x : got.pairs[j].x;
            const Value z = cfg.counted ? got.counted[j].z : got.pairs[j].z;
            if (!seen.insert({x, z}).second) problem = "duplicate pair";
            auto it = oracle.find({x, z});
            if (it == oracle.end()) {
              problem = "phantom pair";
            } else if (cfg.counted && got.counted[j].count != it->second) {
              problem = "wrong witness count";  // truncated != approximated
            }
          }
          if (problem.empty() && !got.interrupted && n != oracle.size()) {
            problem = "un-interrupted run incomplete";
          }
          if (problem.empty() &&
              got.light_chunks_executed + got.light_chunks_skipped !=
                  got.light_chunks_total) {
            problem = "light accounting broken";
          }
          if (!problem.empty()) {
            const std::string line = cfg.ToString() + " form=" + form.name +
                                     " variant=" + v.name +
                                     " threads=" + std::to_string(t) +
                                     " deadline-recipe " + problem;
            RecordFailure(line);
            ADD_FAILURE() << "random-deadline violation: " << line;
            return;
          }
        }
      }
    }

    // Paginated consumer through the engine: a deadline may SHORTEN the
    // page, never corrupt it.
    const uint64_t offset = rng.Next() % 20;
    const uint64_t limit = 1 + rng.Next() % 30;
    const bool tight = rng.Next() % 2 == 0;
    const uint64_t us = tight ? rng.Next() % 300 : 0;
    for (auto& [form, q] : inst.forms) {
      CancelToken token;
      if (tight) {
        token.SetDeadline(std::chrono::steady_clock::now() +
                          std::chrono::microseconds(us));
      } else {
        token.SetDeadlineAfter(60 * 1000);
      }
      PageSink sink(offset, limit);
      ExecStats stats;
      ExecOptions exec;
      exec.threads = threads.back();
      exec.cancel = &token;
      const QueryStatus st = inst.engine.Execute(q, sink, exec, &stats);
      ASSERT_TRUE(st.ok()) << st.message();
      const uint64_t total = oracle.size();
      const uint64_t want_page =
          std::min<uint64_t>(limit, total > offset ? total - offset : 0);
      std::string problem;
      if (stats.interrupted) {
        if (sink.size() > want_page) problem = "page too long";
      } else if (sink.size() != want_page) {
        problem = "wrong page size";
      }
      std::set<std::pair<Value, Value>> seen;
      for (const OutPair& p : sink.pairs()) {
        if (!oracle.count({p.x, p.z})) problem = "phantom page entry";
        if (!seen.insert({p.x, p.z}).second) problem = "duplicate page entry";
      }
      if (!problem.empty()) {
        const std::string line = cfg.ToString() + " form=" + form.name +
                                 " page offset=" + std::to_string(offset) +
                                 " limit=" + std::to_string(limit) + " " +
                                 problem;
        RecordFailure(line);
        ADD_FAILURE() << "random-deadline page violation: " << line;
        return;
      }
    }
  }
}

// ---- Batched / cached service recipe ------------------------------------
//
// The batching subsystem must be invisible in the results: running every
// recipe through a QueryService with batching + the versioned result cache
// enabled must stay byte-identical to the solo reference at every thread
// count. The first service run executes (and populates the cache); every
// later run with the same spec replays from the cache — the fingerprint
// excludes thread count by design — so this recipe covers the leader path,
// the cache insert gate, and cache replay in one sweep. A paginated
// consumer is then served FROM the cache and must see an exact page.

TEST(DifferentialFuzz, BatchedAndCachedServiceMatchesSolo) {
  const int iters = std::max(1, EnvInt("JPMM_FUZZ_ITERS", 50) / 2);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0xBA7Cull;
  const std::vector<int> threads = ThreadCounts();

  for (int i = 0; i < iters; ++i) {
    const FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    TwoPathInstance inst(cfg);
    const testutil::SortedOutput& ref = inst.ref;
    Rng rng(cfg.seed ^ 0xCA9Eull);
    const uint64_t offset = rng.Next() % 20;
    const uint64_t limit = 1 + rng.Next() % 30;

    // One service per form: each form is its own spec, so its own cache
    // entry.
    for (auto& [form, q] : inst.forms) {
      QueryServiceOptions so;
      so.enable_batching = true;
      so.batch_window_ms = 0;  // sequential requests: no coalescing partner,
                               // but the whole leader/fan-out path still runs
      so.enable_result_cache = true;
      QueryService service(&inst.engine, so);

      uint64_t runs = 0;
      for (int t : threads) {
        ServiceRequest req;
        req.exec.threads = t;
        req.exec.thresholds = cfg.thresholds;
        VectorSink sink;
        ExecStats stats;
        const QueryStatus st = service.Execute(q, sink, req, &stats);
        ++runs;
        std::string problem;
        if (!st.ok()) {
          problem = "status: " + st.message();
        } else if (testutil::SortedOutput(sink) != ref) {
          problem = "result mismatch";
        } else if (runs > 1 && !stats.result_cache_hit) {
          problem = "expected a cache hit on a repeat request";
        }
        if (!problem.empty()) {
          const std::string line = cfg.ToString() + " form=" + form.name +
                                   " service threads=" + std::to_string(t) +
                                   " " + problem;
          RecordFailure(line);
          ADD_FAILURE() << "batched-service mismatch: " << line;
          return;
        }
      }
      ASSERT_EQ(service.stats().cache_hits, runs - 1);
      ASSERT_EQ(service.stats().completed, runs);

      // Paginated consumer served from the warm cache: replay must honour
      // the sink's done() and deliver an exact page of real results.
      PageSink sink(offset, limit);
      ExecStats stats;
      ServiceRequest req;
      const QueryStatus st = service.Execute(q, sink, req, &stats);
      ASSERT_TRUE(st.ok()) << st.message();
      ASSERT_TRUE(stats.result_cache_hit);
      const uint64_t total = ref.size();
      const uint64_t want_page =
          std::min<uint64_t>(limit, total > offset ? total - offset : 0);
      std::set<std::pair<Value, Value>> oracle_set;
      for (const OutPair& p : ref.pairs) oracle_set.insert({p.x, p.z});
      for (const CountedPair& p : ref.counted) oracle_set.insert({p.x, p.z});
      std::string problem;
      if (sink.size() != want_page) problem = "wrong cached page size";
      for (const OutPair& p : sink.pairs()) {
        if (oracle_set.count({p.x, p.z}) == 0) problem = "phantom page entry";
      }
      for (const CountedPair& p : sink.counted()) {
        if (oracle_set.count({p.x, p.z}) == 0) problem = "phantom page entry";
      }
      if (!problem.empty()) {
        const std::string line = cfg.ToString() + " form=" + form.name +
                                 " cached-page offset=" +
                                 std::to_string(offset) + " limit=" +
                                 std::to_string(limit) + " " + problem;
        RecordFailure(line);
        ADD_FAILURE() << "cached page violation: " << line;
        return;
      }
    }
  }
}

// ---- Forced-ISA recipes ---------------------------------------------------
//
// The two-path sweep above runs under the ambient dispatch level. These
// recipes force each level the host supports and require byte-identical
// output: first end-to-end (every MM heavy-path variant vs the WCOJ
// reference, which never dispatches), then at the kernel level (the CSR
// products vs their scalar reference on randomized shapes). A failing seed
// reruns under one level with JPMM_ISA=<level> JPMM_FUZZ_SEED=<seed>.

std::vector<KernelIsa> HostIsas() {
  std::vector<KernelIsa> v{KernelIsa::kPortable};
  if (IsaSupported(KernelIsa::kAvx2)) v.push_back(KernelIsa::kAvx2);
  if (IsaSupported(KernelIsa::kAvx512)) v.push_back(KernelIsa::kAvx512);
  return v;
}

TEST(DifferentialFuzz, TwoPathForcedIsaAgreement) {
  // Half the two-path budget per level: the variant surface is the four MM
  // rows (the kernels under dispatch), not the full strategy cross.
  const int iters = std::max(1, EnvInt("JPMM_FUZZ_ITERS", 50) / 2);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0x15Aull;
  const std::vector<int> threads = ThreadCounts();
  const Variant kMmVariants[] = {
      {"mm-auto", Strategy::kMmJoin, HeavyPathMode::kAuto},
      {"mm-dense", Strategy::kMmJoin, HeavyPathMode::kForceDense},
      {"mm-csr-dense", Strategy::kMmJoin, HeavyPathMode::kForceCsrDense},
      {"mm-csr-csr", Strategy::kMmJoin, HeavyPathMode::kForceCsrCsr},
  };

  for (int i = 0; i < iters; ++i) {
    FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    // Pin tiny thresholds: the heavy part (where the SIMD kernels run) must
    // exist on these small instances for the sweep to test anything.
    cfg.thresholds = Thresholds{1, 1};
    TwoPathInstance inst(cfg);

    for (KernelIsa isa : HostIsas()) {
      ScopedIsaOverride force(isa);
      for (const Variant& v : kMmVariants) {
        for (int t : threads) {
          for (auto& [form, q] : inst.forms) {
            const testutil::EngineRun got = testutil::ExecuteSorted(
                inst.engine, q, VariantExec(cfg, v, t));
            if (static_cast<const testutil::SortedOutput&>(got) != inst.ref) {
              const std::string line =
                  cfg.ToString() + " form=" + form.name +
                  " isa=" + KernelIsaName(isa) + " variant=" + v.name +
                  " threads=" + std::to_string(t) +
                  " got=" + std::to_string(got.size()) +
                  " want=" + std::to_string(inst.ref.size());
              RecordFailure(line);
              ADD_FAILURE() << "forced-ISA mismatch: " << line
                            << "\nrepro: JPMM_ISA=" << KernelIsaName(isa)
                            << " JPMM_FUZZ_SEED="
                            << (base + static_cast<uint64_t>(i))
                            << " JPMM_FUZZ_ITERS=1 ./differential_fuzz_test";
              return;
            }
          }
        }
      }
    }
  }
}

TEST(DifferentialFuzz, KernelLevelForcedIsaAgreement) {
  const int iters = EnvInt("JPMM_FUZZ_ITERS", 50);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0x51Dull;
  const std::vector<int> threads = ThreadCounts();

  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    Rng rng(seed);
    // Random shapes deliberately NOT tile-aligned; small enough that the
    // naive oracles stay cheap across 50 (tier-1) / 500 (nightly) iters.
    const size_t u = 1 + rng.NextBounded(96);
    const size_t v = 1 + rng.NextBounded(160);
    const size_t w = 1 + rng.NextBounded(96);
    const double density = 0.02 + 0.3 * (static_cast<double>(rng.Next() % 100) / 100.0);

    const CsrMatrix sa = CsrMatrix::FromDense(
        RandomDenseMatrix(u, v, density, seed ^ 0xE));
    const Matrix sbd = RandomDenseMatrix(v, w, density, seed ^ 0xF);
    const CsrMatrix sb = CsrMatrix::FromDense(sbd);
    const Matrix csr_want = CsrProductReference(sa, sbd);

    for (KernelIsa isa : HostIsas()) {
      ScopedIsaOverride force(isa);
      for (int t : threads) {
        std::string problem;
        if (CsrDenseProduct(sa, sbd, t) != csr_want) {
          problem = "csr-dense product";
        }
        if (problem.empty() && CsrCsrProduct(sa, sb, t) != csr_want) {
          problem = "csr-csr product";
        }
        if (!problem.empty()) {
          const std::string line =
              "seed=" + std::to_string(seed) + " isa=" + KernelIsaName(isa) +
              " threads=" + std::to_string(t) + " u=" + std::to_string(u) +
              " v=" + std::to_string(v) + " w=" + std::to_string(w) +
              " kernel=" + problem;
          RecordFailure(line);
          ADD_FAILURE() << "kernel-level forced-ISA mismatch: " << line
                        << "\nrepro: JPMM_ISA=" << KernelIsaName(isa)
                        << " JPMM_FUZZ_SEED=" << seed
                        << " JPMM_FUZZ_ITERS=1 ./differential_fuzz_test";
          return;
        }
      }
    }
  }
}

TEST(DifferentialFuzz, StarCrossStrategyAgreement) {
  // A quarter of the two-path budget: star instances are pricier and the
  // strategy surface is smaller.
  const int iters = std::max(1, EnvInt("JPMM_FUZZ_ITERS", 50) / 4);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0x57A2ull;

  for (int i = 0; i < iters; ++i) {
    FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    cfg.counted = false;  // stars have no counted mode
    cfg.min_count = 1;
    // k = 4 gives W combos of two values (g2 = 2). Its output grows with
    // the fourth power of the x domain, so a k = 4 star runs over the
    // tuples with x < 16 only.
    const size_t k = 2 + static_cast<size_t>(cfg.seed % 3);
    const BinaryRelation rel = MakeRelation(cfg, 3);
    BinaryRelation star_rel;
    for (const Tuple& e : rel.tuples()) {
      if (k < 4 || e.x < 16) star_rel.Add(e.x, e.y);
    }
    star_rel.Finalize();
    IndexedRelation idx(star_rel);
    // Byte for byte: the WCOJ star's tuples are sorted and duplicate-free,
    // and the engine delivers every strategy's tuples to a VectorSink in
    // that order, so every variant must reproduce the reference's buffer.
    const std::vector<Value> ref =
        WcojStarJoin(std::vector<const IndexedRelation*>(k, &idx)).flat();

    QueryEngine engine;
    engine.AddRelation("R", star_rel);
    QuerySpec spec;
    spec.kind = QueryKind::kStar;
    spec.relations = std::vector<std::string>(k, "R");
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(spec, &q).ok());

    // Each variant runs twice per thread count on the one PreparedQuery,
    // the second time at the next thread count, so most calls meet the
    // operand memo an earlier call left (HeavyOperandCache). Every call
    // must match the reference and report the heavy record of a cold run
    // (a fresh PreparedQuery) at its options: a memo hit under a changed
    // fit input would not. kCap doubles most heavy parts' thresholds, so
    // the capped variants' fit depends on the cap and on the kernel mode;
    // each differs from the call before it in exactly one of the two.
    constexpr uint64_t kCap = uint64_t{64} << 10;
    struct StarVariant {
      const char* name;
      Strategy strategy;
      PartitionMode partition;
      HeavyPathMode heavy_path = HeavyPathMode::kAuto;
      uint64_t max_matrix_bytes = ExecOptions{}.max_matrix_bytes;
    };
    const StarVariant star_variants[] = {
        {"star-mmjoin", Strategy::kMmJoin, PartitionMode::kOff},
        {"star-mm-density", Strategy::kMmJoin, PartitionMode::kForce},
        {"star-mm-capped", Strategy::kMmJoin, PartitionMode::kOff,
         HeavyPathMode::kAuto, kCap},
        {"star-mm-capped-dense", Strategy::kMmJoin, PartitionMode::kOff,
         HeavyPathMode::kForceDense, kCap},
        {"star-mm-dense", Strategy::kMmJoin, PartitionMode::kOff,
         HeavyPathMode::kForceDense},
        {"star-mm-csr-dense", Strategy::kMmJoin, PartitionMode::kOff,
         HeavyPathMode::kForceCsrDense},
        {"star-mm-csr-csr", Strategy::kMmJoin, PartitionMode::kOff,
         HeavyPathMode::kForceCsrCsr},
        {"star-mm-density-dense", Strategy::kMmJoin, PartitionMode::kForce,
         HeavyPathMode::kForceDense},
        {"star-mm-density-csr-dense", Strategy::kMmJoin, PartitionMode::kForce,
         HeavyPathMode::kForceCsrDense},
        {"star-mm-density-csr-csr", Strategy::kMmJoin, PartitionMode::kForce,
         HeavyPathMode::kForceCsrCsr},
        {"star-nonmm", Strategy::kNonMmJoin, PartitionMode::kOff},
    };
    // The fields of the heavy record the fitted operands decide.
    auto operand_record = [](const ExecStats& st) {
      return std::vector<uint64_t>{st.a_nnz, st.b_nnz, st.heavy_blocks_total,
                                   st.light_chunks_total};
    };
    const std::vector<int> threads = ThreadCounts();
    for (const StarVariant& sv : star_variants) {
      std::map<int, std::vector<uint64_t>> cold_records;  // per thread count
      for (size_t ti = 0; ti < threads.size(); ++ti) {
        for (const int t : {threads[ti], threads[(ti + 1) % threads.size()]}) {
          ExecOptions exec;
          exec.strategy_override = sv.strategy;
          exec.partition = sv.partition;
          exec.heavy_path = sv.heavy_path;
          exec.max_matrix_bytes = sv.max_matrix_bytes;
          exec.threads = t;
          exec.thresholds = cfg.thresholds;
          VectorSink sink;
          ExecStats warm;
          const QueryStatus st = engine.Execute(q, sink, exec, &warm);
          ASSERT_TRUE(st.ok()) << st.message();
          if (!cold_records.contains(t)) {
            CountOnlySink cold_sink;
            ExecStats cold;
            ASSERT_TRUE(engine.Run(spec, cold_sink, exec, &cold).ok());
            cold_records[t] = operand_record(cold);
          }
          const std::vector<Value>& got = sink.tuple_data();
          if (got != ref || operand_record(warm) != cold_records[t]) {
            const std::string line =
                cfg.ToString() + " variant=" + sv.name +
                " k=" + std::to_string(k) + " threads=" + std::to_string(t) +
                " got=" + std::to_string(got.size() / k) +
                " want=" + std::to_string(ref.size() / k) +
                " a_nnz=" + std::to_string(warm.a_nnz) +
                " cold_a_nnz=" + std::to_string(cold_records[t][0]);
            RecordFailure(line);
            ADD_FAILURE() << "star cross-strategy mismatch: " << line;
            return;
          }
        }
      }
    }

    // Triangle rows: the symmetric closure of the same instance, counted by
    // the MM triangle (its heavy trace product runs on the same executor)
    // against the node iterator. Small degree thresholds keep a heavy part.
    BinaryRelation sym;
    for (const Tuple& e : rel.tuples()) {
      sym.Add(e.x, e.y);
      sym.Add(e.y, e.x);
    }
    sym.Finalize();
    const IndexedRelation sym_idx(sym);
    const uint64_t tri_ref = CountTrianglesNodeIterator(sym_idx);
    struct TriangleVariant {
      const char* name;
      HeavyPathMode heavy_path;
    };
    const TriangleVariant tri_variants[] = {
        {"tri-auto", HeavyPathMode::kAuto},
        {"tri-dense", HeavyPathMode::kForceDense},
        {"tri-csr-dense", HeavyPathMode::kForceCsrDense},
        {"tri-csr-csr", HeavyPathMode::kForceCsrCsr},
    };
    for (const TriangleVariant& tv : tri_variants) {
      for (int t : ThreadCounts()) {
        TriangleCountOptions opts;
        opts.delta = 1 + cfg.seed % 4;
        opts.heavy_path = tv.heavy_path;
        opts.threads = t;
        const uint64_t got = CountTrianglesMm(sym_idx, opts).triangles;
        if (got != tri_ref) {
          const std::string line =
              cfg.ToString() + " variant=" + tv.name +
              " delta=" + std::to_string(opts.delta) +
              " threads=" + std::to_string(t) + " got=" + std::to_string(got) +
              " want=" + std::to_string(tri_ref);
          RecordFailure(line);
          ADD_FAILURE() << "triangle cross-kernel mismatch: " << line;
          return;
        }
      }
    }
  }
}

// ---- Set-join recipe ------------------------------------------------------
//
// SSJ and SCJ run through QueryEngine as filters over the counted self
// two-path (§4). Every strategy, with the recipe's pinned or
// optimizer-chosen thresholds, must be byte-identical to the brute-force
// set-join oracles: SSJ at a random c in 1..4, unordered and ordered (into
// a VectorSink, and into an OrderedBySink(kCountDescending), whose rank
// order must already be the canonical one), and SCJ.

TEST(DifferentialFuzz, SetJoinCrossStrategyAgreement) {
  const int iters = std::max(1, EnvInt("JPMM_FUZZ_ITERS", 50) / 2);
  const uint64_t base = EnvU64("JPMM_FUZZ_SEED", 20260726) ^ 0x5E7ull;
  const Strategy kStrategies[] = {Strategy::kAuto, Strategy::kMmJoin,
                                  Strategy::kNonMmJoin, Strategy::kWcojFull};

  for (int i = 0; i < iters; ++i) {
    const FuzzConfig cfg = MakeConfig(base + static_cast<uint64_t>(i));
    const BinaryRelation rel = MakeRelation(cfg, 4);
    const IndexedRelation idx(rel);
    const SetFamily fam(idx);
    const uint32_t c = 1 + static_cast<uint32_t>(cfg.seed % 4);
    const SsjResult ssj_oracle = testutil::OracleSsj(fam, c, false);
    SsjResult ordered_oracle = testutil::OracleSsj(fam, c, true);
    CanonicalizeSsj(&ordered_oracle, /*ordered=*/true);
    const ScjResult scj_oracle = testutil::OracleScj(fam);

    QueryEngine engine;
    engine.AddRelation("R", rel);
    QuerySpec ssj;
    ssj.kind = QueryKind::kSsj;
    ssj.relations = {"R"};
    ssj.ssj_c = c;
    QuerySpec ordered = ssj;
    ordered.ssj_ordered = true;
    QuerySpec scj;
    scj.kind = QueryKind::kScj;
    scj.relations = {"R"};
    PreparedQuery ssj_q, ordered_q, scj_q;
    ASSERT_TRUE(engine.Prepare(ssj, &ssj_q).ok());
    ASSERT_TRUE(engine.Prepare(ordered, &ordered_q).ok());
    ASSERT_TRUE(engine.Prepare(scj, &scj_q).ok());

    for (Strategy strategy : kStrategies) {
      for (int t : ThreadCounts()) {
        ExecOptions exec;
        exec.strategy_override = strategy;
        exec.threads = t;
        exec.thresholds = cfg.thresholds;
        VectorSink plain, counted, contained;
        OrderedBySink ranked(ResultOrder::kCountDescending);
        ASSERT_TRUE(engine.Execute(ssj_q, plain, exec).ok());
        ASSERT_TRUE(engine.Execute(ordered_q, counted, exec).ok());
        ASSERT_TRUE(engine.Execute(ordered_q, ranked, exec).ok());
        ASSERT_TRUE(engine.Execute(scj_q, contained, exec).ok());

        std::string problem;
        if (ToSsjResult(plain, /*ordered=*/false) != ssj_oracle) {
          problem = "ssj";
        } else if (ToSsjResult(counted, /*ordered=*/true) != ordered_oracle) {
          problem = "ordered ssj";
        } else if (ranked.ranked().size() != ordered_oracle.size()) {
          problem = "ranked ssj size";
        } else if (ToScjResult(contained) != scj_oracle) {
          problem = "scj";
        }
        for (size_t j = 0; problem.empty() && j < ordered_oracle.size(); ++j) {
          const CountedPair& got = ranked.ranked()[j];
          const SimilarPair& want = ordered_oracle[j];
          if (got.x != want.a || got.z != want.b ||
              got.count != want.overlap) {
            problem = "ranked ssj order";
          }
        }
        if (!problem.empty()) {
          const std::string line =
              cfg.ToString() + " set-join=" + problem +
              " strategy=" + StrategyName(strategy) +
              " c=" + std::to_string(c) + " threads=" + std::to_string(t);
          RecordFailure(line);
          ADD_FAILURE() << "set-join cross-strategy mismatch: " << line;
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jpmm
