// E13 (paper §4.4, "Functional Dependencies"): the TPC-H classification
// census. The paper reports (citing the ICDE'09 study) that 8 Boolean and
// 13 non-Boolean TPC-H queries are hierarchical, with 4 + 4 more becoming
// hierarchical under the schema's functional dependencies. We reproduce
// the census on our documented flattening of the 22 join structures (see
// workload/tpch.h): per query, hierarchical / q-hierarchical with and
// without the key FDs, plus totals.
#include <cstdio>

#include "bench_util.h"
#include "incr/query/fd.h"
#include "incr/query/properties.h"
#include "incr/workload/tpch.h"

using namespace incr;
using namespace incr::bench;

int main() {
  Section("E13: TPC-H structural census (paper §4.4)");
  Row({"query", "hier", "hier+fd", "qh(full)", "qh+fd", "acyclic"}, 10);
  int hier = 0, hier_fd = 0, qh = 0, qh_fd = 0;
  for (const TpchQuery& q : TpchQueries()) {
    FdSet fds = TpchFdsFor(q.full);
    bool h = IsHierarchical(q.boolean);
    bool hf = IsQHierarchicalUnderFds(q.boolean, fds);  // Boolean: q == h
    bool qhier = IsQHierarchical(q.full);
    bool qhf = IsQHierarchicalUnderFds(q.full, fds);
    hier += h;
    hier_fd += hf;
    qh += qhier;
    qh_fd += qhf;
    std::string name = "Q";
    name += std::to_string(q.number);
    Row({name, h ? "yes" : "-", hf ? "yes" : "-",
         qhier ? "yes" : "-", qhf ? "yes" : "-",
         IsAlphaAcyclic(q.full) ? "yes" : "-"},
        10);
  }
  std::printf("\ntotals over 22 queries:\n");
  Row({"", "hier", "hier+fd", "qh(full)", "qh+fd"}, 10);
  Row({"count", FmtInt(hier), FmtInt(hier_fd), FmtInt(qh), FmtInt(qh_fd)},
      10);
  std::printf("\npaper (ICDE'09 encodings): 8 Boolean hierarchical -> 12 "
              "with FDs; 13 non-Boolean -> 17 with FDs. Our flattening "
              "differs in the subquery treatment, so totals differ; the "
              "reproduced phenomenon is the FD-driven jump.\n");
  return 0;
}
