#include "ssj/size_aware_pp.h"

#include <algorithm>

#include "common/check.h"
#include "core/join_project.h"
#include "core/optimizer.h"
#include "core/result_sink.h"
#include "ssj/prefix_tree.h"
#include "ssj/size_aware.h"
#include "ssj/size_boundary.h"
#include "storage/index.h"
#include "storage/stats.h"

namespace jpmm {
namespace {

// Builds the subrelation of sets selected by pred (set, size) -> bool.
BinaryRelation SubFamilyRelation(const SetFamily& fam,
                                 bool (*pred)(uint32_t, uint32_t),
                                 uint32_t boundary, uint32_t c) {
  BinaryRelation rel;
  for (Value s = 0; s < fam.num_set_ids(); ++s) {
    const uint32_t size = fam.SetSize(s);
    if (size == 0 || !pred(size, boundary) || size < c) continue;
    for (Value e : fam.Elements(s)) rel.Add(s, e);
  }
  rel.Finalize();
  return rel;
}

bool IsHeavySize(uint32_t size, uint32_t boundary) { return size >= boundary; }
bool IsLightSize(uint32_t size, uint32_t boundary) { return size < boundary; }

// The pairs of R JOIN S with >= c witnesses, with their counts, under the
// optimizer's plan.
std::vector<CountedPair> CountedTwoPath(const IndexedRelation& r,
                                        const IndexedRelation& s, uint32_t c,
                                        int threads) {
  OptimizerOptions oo;
  oo.threads = threads;
  const PlanChoice plan = ChooseTwoPathPlan(r, s, TwoPathStats(r, s), oo);
  MmJoinOptions mo;
  mo.threads = threads;
  mo.count_witnesses = true;
  mo.min_count = c;
  VectorSink sink;
  RunTwoPath(r, s, plan, Strategy::kAuto, mo, sink);
  return std::move(sink.counted());
}

// Heavy phase through Algorithm 1: R JOIN Rh with witness counting.
SsjResult MmHeavyPhase(const SetFamily& fam, uint32_t c, uint32_t boundary,
                       int threads) {
  BinaryRelation heavy_rel =
      SubFamilyRelation(fam, IsHeavySize, boundary, /*c=*/1);
  if (heavy_rel.empty()) return {};
  IndexedRelation heavy_idx(heavy_rel);

  const std::vector<CountedPair> counted =
      CountedTwoPath(fam.relation(), heavy_idx, c, threads);

  SsjResult out;
  out.reserve(counted.size());
  for (const CountedPair& p : counted) {
    if (p.x == p.z) continue;
    // p.z is heavy. Keep heavy-heavy pairs once; light partners always.
    if (fam.SetSize(p.x) >= boundary && p.x > p.z) continue;
    out.push_back(SimilarPair{std::min(p.x, p.z), std::max(p.x, p.z),
                              p.count});
  }
  return out;
}

// Light phase through the two-path join with counting.
SsjResult MmLightPhase(const SetFamily& fam, uint32_t c, uint32_t boundary,
                       int threads) {
  BinaryRelation light_rel = SubFamilyRelation(fam, IsLightSize, boundary, c);
  if (light_rel.empty()) return {};
  IndexedRelation light_idx(light_rel);

  SsjResult out;
  for (const CountedPair& p :
       CountedTwoPath(light_idx, light_idx, c, threads)) {
    if (p.x >= p.z) continue;  // each unordered pair once, drop self pairs
    out.push_back(SimilarPair{p.x, p.z, p.count});
  }
  return out;
}

}  // namespace

SsjResult SizeAwarePlusPlus(const SetFamily& fam, const SsjOptions& options) {
  JPMM_CHECK(options.c >= 1);
  const uint32_t boundary = options.boundary_override != 0
                                ? options.boundary_override
                                : GetSizeBoundary(fam, options.c);

  SsjResult out;
  if (options.use_mm_heavy) {
    out = MmHeavyPhase(fam, options.c, boundary, options.threads);
  } else {
    out = SizeAwareHeavyPhase(fam, options.c, boundary, options.threads);
  }

  SsjResult light;
  if (options.use_prefix) {
    light = PrefixMergeLightPhase(fam, options.c, boundary,
                                  options.memo_depth);
  } else if (options.use_mm_light) {
    light = MmLightPhase(fam, options.c, boundary, options.threads);
  } else {
    light = SizeAwareLightPhase(fam, options.c, boundary, options.ordered);
  }
  out.insert(out.end(), light.begin(), light.end());

  if (!options.ordered) {
    for (auto& p : out) p.overlap = 0;
  }
  CanonicalizeSsj(&out, options.ordered);
  return out;
}

}  // namespace jpmm
