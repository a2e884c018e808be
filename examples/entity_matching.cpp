// Entity matching via set similarity join (§1, first application).
//
// Records are sets of tokens; two records match when they share at least c
// tokens. Compares the three SSJ engines (SizeAware, SizeAware++, MMJoin)
// and shows ordered enumeration — most similar pairs first.

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "core/query_engine.h"
#include "datagen/presets.h"
#include "ssj/size_aware.h"
#include "ssj/size_aware_pp.h"
#include "storage/set_family.h"

using namespace jpmm;

int main() {
  // Jokes-shaped token sets: dense, many shared tokens => many duplicates
  // in the underlying join, the regime where MMJoin shines.
  QueryEngine engine;
  engine.AddRelation("records",
                     MakePreset(DatasetPreset::kJokes, /*scale=*/0.5));
  SetFamily fam(engine.catalog().Index("records"));
  std::printf("records: %s\n\n", fam.Stats().ToString().c_str());

  SsjOptions opts;
  opts.c = 3;

  WallTimer t1;
  SsjResult size_aware = SizeAwareJoin(fam, opts);
  const double t_sa = t1.Seconds();

  WallTimer t2;
  SsjResult size_aware_pp = SizeAwarePlusPlus(fam, opts);
  const double t_sapp = t2.Seconds();

  // MMJoin is the engine's SSJ: the counted self join filtered to
  // overlap >= c.
  QuerySpec spec;
  spec.kind = QueryKind::kSsj;
  spec.relations = {"records"};
  spec.ssj_c = opts.c;
  WallTimer t3;
  VectorSink matches;
  QueryStatus st = engine.Run(spec, matches);
  SsjResult mm = ToSsjResult(matches, /*ordered=*/false);
  const double t_mm = t3.Seconds();
  if (!st.ok()) {
    std::printf("SSJ error: %s\n", st.message().c_str());
    return 1;
  }

  std::printf("matches with >= %u shared tokens: %zu pairs\n", opts.c,
              mm.size());
  std::printf("  SizeAware   : %8.3f s\n", t_sa);
  std::printf("  SizeAware++ : %8.3f s\n", t_sapp);
  std::printf("  MMJoin      : %8.3f s\n", t_mm);
  std::printf("results agree : %s\n\n",
              (size_aware == size_aware_pp && size_aware == mm) ? "yes"
                                                                : "NO");

  // Ordered enumeration: the matrix product yields overlap counts for
  // free, so "most similar first" is a ranked sink over the counted pairs.
  spec.ssj_ordered = true;
  OrderedBySink top(ResultOrder::kCountDescending, /*limit=*/5);
  st = engine.Run(spec, top);
  if (!st.ok()) {
    std::printf("SSJ error: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("top 5 most similar record pairs:\n");
  for (const CountedPair& p : top.ranked()) {
    std::printf("  records (%u, %u): %u shared tokens\n", p.x, p.z, p.count);
  }
  return 0;
}
