// Umbrella header: the full public API of kronotri.
//
//   #include "kronotri.hpp"
//
// brings in the graph substrate, triangle analytics, Kronecker machinery,
// truss decomposition, generators and analysis helpers. Individual headers
// can be included directly for faster builds.
#pragma once

#include "analysis/components.hpp"  // IWYU pragma: export
#include "analysis/degree.hpp"    // IWYU pragma: export
#include "analysis/egonet.hpp"    // IWYU pragma: export
#include "api/analysis.hpp"       // IWYU pragma: export
#include "api/pipeline.hpp"       // IWYU pragma: export
#include "api/plan.hpp"           // IWYU pragma: export
#include "api/registry.hpp"       // IWYU pragma: export
#include "api/sink.hpp"           // IWYU pragma: export
#include "api/spec.hpp"           // IWYU pragma: export
#include "core/coo.hpp"           // IWYU pragma: export
#include "core/csr.hpp"           // IWYU pragma: export
#include "core/graph.hpp"         // IWYU pragma: export
#include "core/io.hpp"            // IWYU pragma: export
#include "core/ops.hpp"           // IWYU pragma: export
#include "core/types.hpp"         // IWYU pragma: export
#include "gen/classic.hpp"        // IWYU pragma: export
#include "gen/one_triangle_pa.hpp"  // IWYU pragma: export
#include "gen/prune.hpp"          // IWYU pragma: export
#include "gen/random.hpp"         // IWYU pragma: export
#include "gen/rmat.hpp"           // IWYU pragma: export
#include "kron/census_oracle.hpp"  // IWYU pragma: export
#include "kron/directed.hpp"      // IWYU pragma: export
#include "kron/formulas.hpp"      // IWYU pragma: export
#include "kron/index.hpp"         // IWYU pragma: export
#include "kron/labeled.hpp"       // IWYU pragma: export
#include "kron/oracle.hpp"        // IWYU pragma: export
#include "kron/product.hpp"       // IWYU pragma: export
#include "kron/stream.hpp"        // IWYU pragma: export
#include "kron/view.hpp"          // IWYU pragma: export
#include "obs/stopwatch.hpp"      // IWYU pragma: export
#include "triangle/bruteforce.hpp"  // IWYU pragma: export
#include "triangle/census.hpp"    // IWYU pragma: export
#include "triangle/clustering.hpp"  // IWYU pragma: export
#include "triangle/count.hpp"     // IWYU pragma: export
#include "triangle/directed.hpp"  // IWYU pragma: export
#include "triangle/labeled.hpp"   // IWYU pragma: export
#include "triangle/support.hpp"   // IWYU pragma: export
#include "truss/decompose.hpp"    // IWYU pragma: export
#include "truss/kron_truss.hpp"   // IWYU pragma: export
#include "util/cli.hpp"           // IWYU pragma: export
#include "util/json.hpp"          // IWYU pragma: export
#include "util/prng.hpp"          // IWYU pragma: export
#include "util/runmeta.hpp"       // IWYU pragma: export
#include "util/stats.hpp"         // IWYU pragma: export
#include "util/table.hpp"         // IWYU pragma: export
#include "validate/report.hpp"    // IWYU pragma: export
#include "validate/streaming_census.hpp"  // IWYU pragma: export
