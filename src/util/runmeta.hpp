// Hardware/run metadata stamped into every machine-readable artifact.
//
// RunReports travel between machines (CI artifacts, single-core
// containers, real multi-core boxes), and a throughput number is
// meaningless without the execution context it was measured in.
// run_metadata() packages the context once: hardware concurrency, the
// OpenMP team ceiling, the streaming batch size, and the source revision
// (git describe, captured at configure time).
#pragma once

#include <cstddef>

#include "util/json.hpp"

namespace kronotri::util {

/// Metadata object: {hardware_concurrency, omp_max_threads, batch_size,
/// git_describe}. `git_describe` is the configure-time `git describe
/// --always --dirty` ("unknown" outside a git checkout); it goes stale if
/// the build tree outlives the commit it was configured at, which is the
/// accepted precision for a provenance hint.
json::Value run_metadata(std::size_t batch_size);

/// Process peak resident set size in BYTES (getrusage ru_maxrss, which
/// Linux reports in KiB). A monotone high-water mark for the whole process
/// — it never decreases, so in a long-running server it bounds the largest
/// job seen so far rather than the current one. Returns 0 where getrusage
/// is unavailable.
std::size_t peak_rss_bytes();

}  // namespace kronotri::util
