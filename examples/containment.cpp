// Set containment join across the four engines (§4, Fig 4c).
//
// MMJoin computes the counted join-project and reads containment off the
// witness counts (|r INTERSECT s| = |r|); the trie-based algorithms
// (PRETTI, PIEJoin) and LIMIT+ verify candidates pair by pair.

#include <cstdio>
#include <functional>

#include "common/timer.h"
#include "core/query_engine.h"
#include "datagen/presets.h"
#include "scj/limit_plus.h"
#include "scj/piejoin.h"
#include "scj/pretti.h"
#include "storage/set_family.h"

using namespace jpmm;

int main() {
  // Protein-shaped family: large dense sets, where merge-based
  // verification is the trie algorithms' bottleneck.
  QueryEngine engine;
  engine.AddRelation("sets",
                     MakePreset(DatasetPreset::kProtein, /*scale=*/0.4));
  SetFamily fam(engine.catalog().Index("sets"));
  std::printf("sets: %s\n\n", fam.Stats().ToString().c_str());

  struct Engine {
    const char* name;
    std::function<ScjResult()> run;
  };
  const Engine engines[] = {
      {"PRETTI", [&] { return PrettiJoin(fam); }},
      {"LIMIT+", [&] { return LimitPlusJoin(fam); }},
      {"PIEJoin", [&] { return PieJoin(fam); }},
      {"MM-SCJ", [&] {
         QuerySpec spec;
         spec.kind = QueryKind::kScj;
         spec.relations = {"sets"};
         VectorSink sink;
         const QueryStatus st = engine.Run(spec, sink);
         if (!st.ok()) std::printf("MM-SCJ error: %s\n", st.message().c_str());
         return ToScjResult(sink);
       }},
  };

  ScjResult reference;
  for (const Engine& e : engines) {
    WallTimer timer;
    ScjResult res = e.run();
    const double sec = timer.Seconds();
    if (reference.empty() && res.empty()) {
      // fine — keep looking for a non-empty reference
    } else if (reference.empty()) {
      reference = res;
    }
    const bool agrees = reference.empty() || res == reference;
    std::printf("%-8s: %6zu containments in %8.3f s%s\n", e.name, res.size(),
                sec, agrees ? "" : "  <-- MISMATCH");
  }

  if (!reference.empty()) {
    std::printf("\nexample containment: set %u is a subset of set %u\n",
                reference[0].sub, reference[0].super);
  }
  return 0;
}
