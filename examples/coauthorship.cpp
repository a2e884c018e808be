// Graph analytics: extracting a co-author graph from a bibliography view.
//
// §1's third application: the DBLP table R(author, paper) defines the
// implicit co-author view V(x, y) = R(x, p), R(y, p). Materializing V is a
// join-project; jpmm evaluates it output-sensitively instead of computing
// the (author, author, paper) join first.

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "core/query_engine.h"
#include "datagen/presets.h"
#include "storage/set_family.h"

using namespace jpmm;

int main() {
  // DBLP-shaped bibliography (Table 2 regime, laptop scale).
  QueryEngine engine;
  engine.AddRelation("author_paper",
                     MakePreset(DatasetPreset::kDblp, /*scale=*/0.4));
  SetFamily authors(engine.catalog().Index("author_paper"));
  std::printf("bibliography: %s\n", authors.Stats().ToString().c_str());

  // Materialize the co-author view with witness counts: count = number of
  // joint papers.
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"author_paper"};
  spec.count_witnesses = true;
  VectorSink view;
  ExecStats stats;
  WallTimer timer;
  const QueryStatus st = engine.Run(spec, view, {}, &stats);
  const double seconds = timer.Seconds();
  if (!st.ok()) {
    std::printf("error: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("co-author view: %zu directed pairs in %.3f s (plan: %s)\n",
              view.counted().size(), seconds,
              stats.plan.ToString().c_str());

  // Top collaborations.
  std::vector<CountedPair> top;
  for (const CountedPair& p : view.counted()) {
    if (p.x < p.z) top.push_back(p);
  }
  std::partial_sort(top.begin(), top.begin() + std::min<size_t>(5, top.size()),
                    top.end(), [](const CountedPair& a, const CountedPair& b) {
                      return a.count > b.count;
                    });
  std::printf("top collaborations:\n");
  for (size_t i = 0; i < std::min<size_t>(5, top.size()); ++i) {
    std::printf("  authors (%u, %u): %u joint papers\n", top[i].x, top[i].z,
                top[i].count);
  }

  // The boolean-API scenario: "have a1 and a2 ever co-authored?" is a
  // membership probe into the materialized view.
  if (!top.empty()) {
    const CountedPair q = top[0];
    const bool coauthored =
        std::any_of(view.counted().begin(), view.counted().end(),
                    [&](const CountedPair& p) {
                      return p.x == q.x && p.z == q.z;
                    });
    std::printf("API probe: authors (%u, %u) co-authored? %s\n", q.x, q.z,
                coauthored ? "yes" : "no");
  }
  return 0;
}
