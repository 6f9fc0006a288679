#ifndef QSE_RETRIEVAL_FILTER_REFINE_H_
#define QSE_RETRIEVAL_FILTER_REFINE_H_

// Umbrella header for the filter-and-refine retrieval stack.  The
// subsystem lives in four pieces:
//
//   embedded_database.h  - flat SoA storage of the embedded vectors
//   filter_scorer.h      - the filter step's scan kernels
//   retrieval_pipeline.h - embed, scan N sources, merge, refine
//   retrieval_engine.h   - the pipeline over one embedded database
//
// plus EmbedDatabase() below, the offline preprocessing step that fills
// the database.

#include <memory>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/data/dataset.h"
#include "src/embedding/embedder.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/top_k.h"

namespace qse {

/// Embeds every database object with `embedder`, in parallel across
/// `num_threads` workers (hardware concurrency when 0).  The exact
/// distances this consumes are offline preprocessing, not part of the
/// per-query cost.  `embedder` and `oracle` must be safe for concurrent
/// const use (CachingOracle is; plain ObjectOracle with a pure distance
/// function is too).
EmbeddedDatabase EmbedDatabase(const Embedder& embedder,
                               const DistanceOracle& oracle,
                               const std::vector<size_t>& db_ids,
                               size_t num_threads = 0);

}  // namespace qse

#endif  // QSE_RETRIEVAL_FILTER_REFINE_H_
