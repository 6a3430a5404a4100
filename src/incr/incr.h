// Umbrella header: the stable public surface of the incr library in one
// include. Applications (the examples, the REPL, downstream users) include
// only this; the per-subsystem headers underneath remain usable directly
// but are an implementation layout, not an API commitment.
//
// What the surface covers:
//   - queries: parsing, structural classification, variable orders
//   - data: ring-valued relations, deltas, dictionary, text IO
//   - rings: Z, reals, Boolean, min-plus, products, covariance, provenance
//   - engines: the IvmEngine facade, the four Fig. 4 strategies, the
//     cascade / CQAP / insert-only specializations, EngineOptions
//   - durability: DurableEngine (WAL + checkpoint/recovery)
//   - concurrency: epoch-based reclamation (snapshot-isolated reads)
//   - observability: metrics registry and Chrome tracing
//   - SQL front door: CompileSql lowering SQL into the Query machinery
//   - serving: the frame-protocol TCP server and its blocking client
#ifndef INCR_INCR_H_
#define INCR_INCR_H_

// Queries and planning.
#include "incr/query/parser.h"      // IWYU pragma: export
#include "incr/query/properties.h"  // IWYU pragma: export
#include "incr/query/query.h"       // IWYU pragma: export
#include "incr/query/variable_order.h"  // IWYU pragma: export

// Data model.
#include "incr/data/database.h"  // IWYU pragma: export
#include "incr/data/delta.h"     // IWYU pragma: export
#include "incr/data/io.h"        // IWYU pragma: export
#include "incr/data/relation.h"  // IWYU pragma: export
#include "incr/data/value.h"     // IWYU pragma: export

// Rings.
#include "incr/ring/bool_semiring.h"     // IWYU pragma: export
#include "incr/ring/covar_ring.h"        // IWYU pragma: export
#include "incr/ring/int_ring.h"          // IWYU pragma: export
#include "incr/ring/minplus_semiring.h"  // IWYU pragma: export
#include "incr/ring/product_ring.h"      // IWYU pragma: export
#include "incr/ring/provenance.h"        // IWYU pragma: export
#include "incr/ring/ring.h"              // IWYU pragma: export

// The maintenance core and engines.
#include "incr/cascade/cascade_engine.h"        // IWYU pragma: export
#include "incr/core/view_tree.h"                // IWYU pragma: export
#include "incr/cqap/cqap_engine.h"              // IWYU pragma: export
#include "incr/engines/durable_engine.h"        // IWYU pragma: export
#include "incr/engines/engine.h"                // IWYU pragma: export
#include "incr/engines/engine_options.h"        // IWYU pragma: export
#include "incr/engines/strategies.h"            // IWYU pragma: export
#include "incr/engines/mixed_engine.h"          // IWYU pragma: export
#include "incr/engines/shattered_engine.h"      // IWYU pragma: export
#include "incr/insertonly/insert_only_engine.h" // IWYU pragma: export
#include "incr/ivme/triangle.h"                 // IWYU pragma: export

// The SQL front door and the wire server.
#include "incr/serve/client.h"    // IWYU pragma: export
#include "incr/serve/protocol.h"  // IWYU pragma: export
#include "incr/serve/server.h"    // IWYU pragma: export
#include "incr/sql/sql.h"         // IWYU pragma: export

// Workload generators used by the examples.
#include "incr/workload/graph.h"     // IWYU pragma: export
#include "incr/workload/retailer.h"  // IWYU pragma: export

// Observability.
#include "incr/obs/metrics.h"  // IWYU pragma: export
#include "incr/obs/recorder.h"  // IWYU pragma: export

// Concurrency utilities.
#include "incr/util/epoch.h"  // IWYU pragma: export

// Errors.
#include "incr/util/status.h"  // IWYU pragma: export

#endif  // INCR_INCR_H_
