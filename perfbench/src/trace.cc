#include "perfbench/src/trace.h"

#include <memory>
#include <mutex>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

struct ThreadLog {
  uint64_t slot = 0;
  uint64_t request = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  // Indices into spans, innermost last.
  bool refine_open = false;
  Span refine;
  std::vector<BatchMember> batches;
};

std::mutex logs_mu;
std::vector<std::unique_ptr<ThreadLog>>& Logs() {
  static auto* logs = new std::vector<std::unique_ptr<ThreadLog>>();
  return *logs;
}

thread_local ThreadLog* local_log = nullptr;

ThreadLog* Log() {
  if (local_log == nullptr) {
    std::lock_guard<std::mutex> lock(logs_mu);
    Logs().push_back(std::make_unique<ThreadLog>());
    local_log = Logs().back().get();
    local_log->slot = Logs().size();
  }
  return local_log;
}

uint64_t SpanId(const ThreadLog& log, size_t index) {
  return (log.slot << 40) | (index + 1);
}

uint64_t OpenParent(const ThreadLog& log) {
  return log.open.empty() ? 0 : log.spans[log.open.back()].id;
}

void FlushRefine(ThreadLog* log) {
  if (!log->refine_open) return;
  log->refine.id = SpanId(*log, log->spans.size());
  log->spans.push_back(log->refine);
  log->refine_open = false;
}

}  // namespace

namespace tracer {

void SetRequest(uint64_t request) { Log()->request = request; }

uint64_t CurrentRequest() { return Log()->request; }

void Record(Kind kind, uint64_t request, uint64_t start_ns, uint64_t end_ns,
            uint64_t count) {
  ThreadLog* log = Log();
  Span span;
  span.id = SpanId(*log, log->spans.size());
  span.kind = kind;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.count = count;
  log->spans.push_back(span);
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(logs_mu);
  std::vector<Span> all;
  for (auto& log : Logs()) {
    FlushRefine(log.get());
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

std::vector<BatchMember> CollectBatches() {
  std::lock_guard<std::mutex> lock(logs_mu);
  std::vector<BatchMember> all;
  for (auto& log : Logs()) {
    all.insert(all.end(), log->batches.begin(), log->batches.end());
  }
  return all;
}

void Reset() {
  std::lock_guard<std::mutex> lock(logs_mu);
  for (auto& log : Logs()) {
    log->spans.clear();
    log->open.clear();
    log->batches.clear();
    log->refine_open = false;
  }
}

}  // namespace tracer

ScopedSpan::ScopedSpan(Kind kind, uint64_t request, int32_t shard) {
  ThreadLog* log = Log();
  FlushRefine(log);
  Span span;
  span.id = SpanId(*log, log->spans.size());
  span.parent = OpenParent(*log);
  span.kind = kind;
  span.request = request;
  span.shard = shard;
  index_ = log->spans.size();
  log->spans.push_back(span);
  log->open.push_back(index_);
  log->spans[index_].start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  uint64_t end = NowNs();
  ThreadLog* log = Log();
  FlushRefine(log);
  log->spans[index_].end_ns = end;
  log->open.pop_back();
}

Span& ScopedSpan::span() { return Log()->spans[index_]; }

double TracedDx::operator()(size_t db_id) const {
  uint64_t start = NowNs();
  double d = inner(db_id);
  uint64_t end = NowNs();
  ThreadLog* log = Log();
  if (!log->open.empty() && log->spans[log->open.back()].kind == Kind::kEmbed) {
    Span& embed = log->spans[log->open.back()];
    ++embed.count;
    embed.inner_ns += end - start;
    return d;
  }
  if (log->refine_open && log->refine.request != request) FlushRefine(log);
  if (!log->refine_open) {
    log->refine = Span();
    log->refine.kind = Kind::kRefine;
    log->refine.request = request;
    log->refine.parent = OpenParent(*log);
    log->refine.start_ns = start;
    log->refine_open = true;
  }
  log->refine.end_ns = end;
  ++log->refine.count;
  log->refine.inner_ns += end - start;
  return d;
}

qse::Vector TracedEmbedder::Embed(const qse::DxToDatabaseFn& dx,
                                  size_t* num_exact) const {
  const TracedDx* traced = dx.target<TracedDx>();
  if (traced != nullptr) tracer::SetRequest(traced->request);
  // Writes embed with an untraced closure: their spans carry request 0.
  ScopedSpan span(Kind::kEmbed, traced != nullptr ? traced->request : 0);
  return inner_->Embed(dx, num_exact);
}

std::vector<qse::ScoredIndex> TracedScorer::ScoreTopP(
    const qse::Vector& embedded_query, const qse::EmbeddedDatabase::View& db,
    size_t p, qse::FilterPrecision precision,
    qse::FilterScanStats* scan_stats) const {
  qse::FilterScanStats stats;
  ScopedSpan span(Kind::kScan, tracer::CurrentRequest());
  std::vector<qse::ScoredIndex> top =
      inner_->ScoreTopP(embedded_query, db, p, precision, &stats);
  span.span().count = stats.rows_visited;
  span.span().aux = stats.rows_pruned;
  const size_t value_bytes =
      precision == qse::FilterPrecision::kExact64   ? sizeof(double)
      : precision == qse::FilterPrecision::kFilter32 ? sizeof(float)
                                                     : sizeof(int8_t);
  span.span().inner_ns = stats.rows_visited * db.dims() * value_bytes;
  if (scan_stats != nullptr) *scan_stats = stats;
  return top;
}

qse::StatusOr<qse::RetrievalResponse> TracedBackend::Retrieve(
    const qse::RetrievalRequest& request) const {
  ScopedSpan span(Kind::kRetrieve, tracer::CurrentRequest(), shard_);
  return inner_->Retrieve(request);
}

qse::StatusOr<std::vector<qse::RetrievalResponse>>
TracedBackend::RetrieveBatch(const std::vector<qse::DxToDatabaseFn>& queries,
                             const qse::RetrievalOptions& options) const {
  ScopedSpan span(Kind::kBatch, 0, shard_);
  span.span().count = queries.size();
  ThreadLog* log = Log();
  for (const qse::DxToDatabaseFn& dx : queries) {
    const TracedDx* traced = dx.target<TracedDx>();
    if (traced != nullptr) {
      log->batches.push_back({traced->request, span.span().id});
    }
  }
  return inner_->RetrieveBatch(queries, options);
}

qse::Status TracedBackend::Insert(size_t db_id,
                                  const qse::DxToDatabaseFn& dx) {
  ScopedSpan span(kinds_.insert, 0, shard_);
  return inner_->Insert(db_id, dx);
}

qse::Status TracedBackend::Remove(size_t db_id) {
  ScopedSpan span(kinds_.remove, 0, shard_);
  return inner_->Remove(db_id);
}

qse::StatusOr<qse::ScanCandidatesResult> TracedBackend::ScanCandidates(
    const qse::Vector& embedded_query,
    const qse::RetrievalOptions& options) const {
  qse::StatusOr<qse::ScanCandidatesResult> result = [&] {
    ScopedSpan span(kinds_.scan, tracer::CurrentRequest(), shard_);
    return inner_->ScanCandidates(embedded_query, options);
  }();
  if (capture_limit_ > 0 && result.ok()) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    if (captured_.size() < capture_limit_) {
      captured_.push_back({embedded_query, options, *result});
    }
  }
  return result;
}

std::vector<CapturedScan> TracedBackend::captured() const {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return captured_;
}

qse::Status TracedBackend::InsertEmbedded(size_t db_id,
                                          const qse::Vector& embedded_row) {
  ScopedSpan span(kinds_.insert, 0, shard_);
  return inner_->InsertEmbedded(db_id, embedded_row);
}

}  // namespace perfbench
