// In-memory span recording for the traced run, and the decorators that
// produce the spans by wrapping the library's public layer interfaces:
// Embedder, FilterScorer, RetrievalBackend and the query's dx closure.
//
// Spans are kept in per-thread buffers (no lock on the hot path) and read
// only after every traced thread has gone quiet.  A span's parent is the
// span open on the same thread when it started; spans that belong to one
// query share its request id, which travels inside the TracedDx closure
// (recovered with std::function::target) and, per thread, from the last
// Embed call — a query's embed, scan and refine run on one thread.
//
// The untraced run builds none of these objects.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_backend.h"

namespace perfbench {

enum class Kind : uint8_t {
  kRequest,        // Client: submit to answer.
  kBatch,          // RetrieveBatch as the async server calls it.
  kRetrieve,       // A backend's single Retrieve.
  kEmbed,          // Embedder::Embed; count = DX inside.
  kScan,           // FilterScorer::ScoreTopP; count = rows, aux = pruned.
  kShardScan,      // An in-process shard backend's ScanCandidates.
  kStubScan,       // The remote stub's ScanCandidates (one round trip).
  kServerScan,     // ScanCandidates as the network server calls it.
  kEngineScan,     // A shard engine's ScanCandidates beneath the durable layer.
  kRefine,         // A run of DX calls outside Embed; count = DX.
  kWrite,          // Insert / Remove at the serving front.
  kStubWrite,      // The remote stub's InsertEmbedded / Remove.
  kDurableInsert,  // DurableBackend::InsertEmbedded (engine + WAL).
  kDurableRemove,  // DurableBackend::Remove (engine + WAL).
  kInsert,         // The shard engine's InsertEmbedded.
  kRemove,         // The shard engine's Remove.
};

struct Span {
  uint64_t id = 0;      // Never 0 for a recorded span.
  uint64_t parent = 0;  // 0 = none on this thread.
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t count = 0;
  uint64_t aux = 0;
  /// kEmbed / kRefine: ns spent inside DX calls.  kScan: bytes streamed.
  uint64_t inner_ns = 0;
  Kind kind = Kind::kRequest;
  int32_t shard = -1;
  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// Membership of a request in a RetrieveBatch call.
struct BatchMember {
  uint64_t request = 0;
  uint64_t batch_span = 0;
};

namespace tracer {

/// Sets the request that spans opened on this thread belong to.
void SetRequest(uint64_t request);
uint64_t CurrentRequest();

/// Records a span measured elsewhere (e.g. submit on one thread, answer
/// on another).
void Record(Kind kind, uint64_t request, uint64_t start_ns, uint64_t end_ns,
            uint64_t count = 0);

/// Every span recorded so far, and every batch membership.  Call only
/// when no traced work is running.
std::vector<Span> Collect();
std::vector<BatchMember> CollectBatches();

/// Drops everything recorded so far.
void Reset();

}  // namespace tracer

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Kind kind, uint64_t request, int32_t shard = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The open span, for filling count/aux before it closes.
  Span& span();

 private:
  size_t index_;
};

/// The query's exact-distance closure, timed per call.  DX inside an
/// Embed span counts toward that span; DX anywhere else is the refine
/// step and is gathered into kRefine spans.
struct TracedDx {
  qse::DxToDatabaseFn inner;
  uint64_t request = 0;
  double operator()(size_t db_id) const;
};

class TracedEmbedder : public qse::Embedder {
 public:
  explicit TracedEmbedder(const qse::Embedder* inner) : inner_(inner) {}
  size_t dims() const override { return inner_->dims(); }
  qse::Vector Embed(const qse::DxToDatabaseFn& dx,
                    size_t* num_exact) const override;
  size_t EmbeddingCost() const override { return inner_->EmbeddingCost(); }

 private:
  const qse::Embedder* inner_;
};

class TracedScorer : public qse::FilterScorer {
 public:
  explicit TracedScorer(const qse::FilterScorer* inner) : inner_(inner) {}
  void Score(const qse::Vector& embedded_query,
             const qse::EmbeddedDatabase::View& db,
             std::vector<double>* scores) const override {
    inner_->Score(embedded_query, db, scores);
  }
  std::vector<qse::ScoredIndex> ScoreTopP(
      const qse::Vector& embedded_query,
      const qse::EmbeddedDatabase::View& db, size_t p,
      qse::FilterPrecision precision,
      qse::FilterScanStats* scan_stats) const override;

 private:
  const qse::FilterScorer* inner_;
};

/// Which span kinds a TracedBackend records for each call.
struct BackendKinds {
  Kind scan = Kind::kShardScan;
  Kind insert = Kind::kInsert;
  Kind remove = Kind::kRemove;
};

/// One ScanCandidates call as it crossed the backend: what the wire
/// codec would encode for it.
struct CapturedScan {
  qse::Vector embedded_query;
  qse::RetrievalOptions options;
  qse::ScanCandidatesResult result;
};

/// Forwards every call to `inner`, recording a span around it.
/// RetrieveBatch also records which requests rode in the batch.
class TracedBackend : public qse::RetrievalBackend {
 public:
  TracedBackend(qse::RetrievalBackend* inner, BackendKinds kinds,
                int32_t shard = -1)
      : inner_(inner), kinds_(kinds), shard_(shard) {}

  qse::StatusOr<qse::RetrievalResponse> Retrieve(
      const qse::RetrievalRequest& request) const override;
  qse::StatusOr<std::vector<qse::RetrievalResponse>> RetrieveBatch(
      const std::vector<qse::DxToDatabaseFn>& queries,
      const qse::RetrievalOptions& options) const override;
  qse::Status Insert(size_t db_id, const qse::DxToDatabaseFn& dx) override;
  qse::Status Remove(size_t db_id) override;
  qse::StatusOr<qse::ScanCandidatesResult> ScanCandidates(
      const qse::Vector& embedded_query,
      const qse::RetrievalOptions& options) const override;
  qse::Status InsertEmbedded(size_t db_id,
                             const qse::Vector& embedded_row) override;
  size_t size() const override { return inner_->size(); }
  size_t db_id_of(size_t neighbor_index) const override {
    return inner_->db_id_of(neighbor_index);
  }

  /// Keeps a copy of the first `limit` successful scans.
  void CaptureScans(size_t limit) { capture_limit_ = limit; }
  std::vector<CapturedScan> captured() const;

 private:
  qse::RetrievalBackend* inner_;
  BackendKinds kinds_;
  int32_t shard_;
  size_t capture_limit_ = 0;
  mutable std::mutex capture_mu_;
  mutable std::vector<CapturedScan> captured_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
