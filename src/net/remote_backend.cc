#include "src/net/remote_backend.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace qse {
namespace net {
namespace {

bool IsReadOp(WireOp op) {
  return op == WireOp::kScan || op == WireOp::kInfo;
}

/// Transport faults where a second attempt over a fresh connection can
/// honestly succeed.  Deadline expiry is excluded: retrying a spent
/// budget only spends more of it.
bool IsRetryableTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDataLoss;
}

}  // namespace

RemoteRetrievalBackend::RemoteRetrievalBackend(const Embedder* embedder,
                                               std::string host, uint16_t port,
                                               RemoteBackendOptions options)
    : embedder_(embedder),
      host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      rpcs_total_(
          obs::MetricRegistry::Global().GetCounter("qse_remote_rpcs_total")),
      rpc_errors_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_rpc_errors_total")),
      rpc_retries_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_rpc_retries_total")),
      reconnects_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_reconnects_total")),
      rpc_latency_ns_(obs::MetricRegistry::Global().GetHistogram(
          "qse_remote_rpc_latency_ns", obs::DefaultLatencyBoundariesNs())) {
  pipeline_.embedder = embedder_;
  pipeline_.scan = [this](size_t, const std::vector<Vector>& embedded_queries,
                          const RetrievalOptions& options,
                          obs::RequestTrace* trace) {
    return StartScan(embedded_queries, options, trace);
  };
  pipeline_.scan_span = "rpc_scan";
}

StatusOr<Socket> RemoteRetrievalBackend::Dial(uint64_t deadline_budget_ns)
    const {
  // Dial with doubling backoff: a restarted peer (kill, WAL recovery,
  // re-listen) comes back within a few backoff periods, and since
  // nothing has been sent yet this is safe for every op, mutations
  // included.  The loop respects the deadline budget — waiting out a
  // backoff the request cannot afford just fails it later.
  const size_t attempts =
      options_.reconnect_attempts == 0 ? 1 : options_.reconnect_attempts;
  std::chrono::nanoseconds backoff = options_.reconnect_backoff;
  const MonotonicClock::time_point dial_start = MonotonicClock::now();
  for (size_t attempt = 0;; ++attempt) {
    StatusOr<Socket> dialed = Socket::Connect(host_, port_, options_.transport);
    if (dialed.ok()) return dialed;
    const bool budget_left =
        deadline_budget_ns == 0 ||
        NsSince(dial_start) + static_cast<uint64_t>(backoff.count()) <
            deadline_budget_ns;
    if (attempt + 1 >= attempts ||
        !IsRetryableTransportError(dialed.status()) || !budget_left) {
      return dialed.status();
    }
    reconnects_total_->Increment();
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
  }
}

StatusOr<Socket> RemoteRetrievalBackend::SendOnce(
    const WireRequest& request, const std::string& payload) const {
  // Up to two SEND attempts: a pooled connection may have died while
  // idle (the peer restarted between requests).  A send failure on a
  // pooled socket is pre-delivery — the request never reached a live
  // connection — so retrying it over a fresh dial is safe for every op,
  // mutations included.  Failures AFTER a successful send are never
  // retried here; Receive's read-only retry policy owns those.
  for (int attempt = 0;; ++attempt) {
    Socket sock;
    bool pooled = false;
    {
      // Checkout with a health check: a pooled connection whose peer died
      // while it sat idle (restart between requests) shows a pending EOF
      // — discard it instead of sending into it, so even a MUTATION's
      // first attempt after a peer restart lands on a fresh dial rather
      // than a socket known to be dead.
      std::lock_guard<std::mutex> lock(pool_mu_);
      while (!pool_.empty()) {
        Socket candidate = std::move(pool_.back());
        pool_.pop_back();
        if (!candidate.StaleWhileIdle()) {
          sock = std::move(candidate);
          pooled = true;
          break;
        }
        reconnects_total_->Increment();
      }
    }
    if (!sock.valid()) {
      StatusOr<Socket> dialed = Dial(request.deadline_budget_ns);
      QSE_RETURN_IF_ERROR(dialed.status());
      sock = std::move(dialed).value();
    }

    // Bound the response wait by the remaining deadline budget, so a
    // slow peer fails this call at the deadline instead of the full
    // transport timeout.
    std::chrono::nanoseconds read_timeout = options_.transport.read_timeout;
    if (request.deadline_budget_ns > 0) {
      read_timeout = std::min(
          read_timeout,
          std::chrono::nanoseconds(request.deadline_budget_ns));
    }
    Status status = sock.SetReadTimeout(read_timeout);
    if (status.ok()) status = sock.SendFrame(payload);
    if (!status.ok()) {
      if (pooled && attempt == 0 && IsRetryableTransportError(status)) {
        continue;  // stale pooled socket: redial and resend
      }
      return status;
    }
    return sock;
  }
}

StatusOr<WireResponse> RemoteRetrievalBackend::ReceiveOnce(
    StatusOr<Socket> sent) const {
  QSE_RETURN_IF_ERROR(sent.status());
  Socket sock = std::move(sent).value();
  StatusOr<std::string> frame = sock.RecvFrame();
  if (!frame.ok()) return frame.status();  // dead socket stays out of pool

  WireResponse response;
  Status decoded = DecodeResponse(frame.value(), &response);
  if (!decoded.ok()) return decoded;  // framing broken: drop the socket

  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.push_back(std::move(sock));
  return response;
}

RemoteRetrievalBackend::SentCall RemoteRetrievalBackend::Send(
    WireRequest request) const {
  rpcs_total_->Increment();
  const MonotonicClock::time_point start = MonotonicClock::now();

  // Deadline -> remaining budget, computed as late as possible so queue
  // and embed time already spent is reflected.
  if (request.options.deadline != RetrievalClock::time_point::max()) {
    auto remaining = request.options.deadline - MonotonicClock::now();
    if (remaining.count() <= 0) {
      return {std::move(request),
              Status::DeadlineExceeded("deadline expired before RPC send"),
              start};
    }
    request.deadline_budget_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining)
            .count());
  }
  StatusOr<Socket> sock = SendOnce(request, EncodeRequest(request));
  return {std::move(request), std::move(sock), start};
}

StatusOr<WireResponse> RemoteRetrievalBackend::Receive(SentCall call) const {
  StatusOr<WireResponse> result = ReceiveOnce(std::move(call.sock));
  if (!result.ok() && options_.retry_reads && IsReadOp(call.request.op) &&
      IsRetryableTransportError(result.status())) {
    rpc_retries_total_->Increment();
    result = ReceiveOnce(SendOnce(call.request, EncodeRequest(call.request)));
  }
  if (!result.ok()) {
    rpc_errors_total_->Increment();
    return result.status();
  }
  rpc_latency_ns_->Record(NsSince(call.start));
  const WireResponse& response = result.value();
  if (response.code != StatusCode::kOk) {
    // An application-level error the server answered with; surface it
    // as-is — it is the backend's own contract (InvalidArgument,
    // FailedPrecondition, NotFound, ...) speaking through the wire.
    rpc_errors_total_->Increment();
    return Status(response.code, response.message);
  }
  return result;
}

StatusOr<WireResponse> RemoteRetrievalBackend::Call(WireRequest request) const {
  return Receive(Send(std::move(request)));
}

StatusOr<ScanCandidatesResult> RemoteRetrievalBackend::ScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options) const {
  StatusOr<std::vector<ScanCandidatesResult>> batch =
      ScanCandidatesBatch({embedded_query}, options);
  QSE_RETURN_IF_ERROR(batch.status());
  return std::move(batch->front());
}

StatusOr<std::vector<ScanCandidatesResult>>
RemoteRetrievalBackend::ScanCandidatesBatch(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options) const {
  return StartScanCandidatesBatch(embedded_queries, options).Wait();
}

PendingScan RemoteRetrievalBackend::StartScanCandidatesBatch(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options) const {
  Status valid = ValidateRetrievalOptions(options);
  if (!valid.ok()) return PendingScan(valid);
  return StartScan(embedded_queries, options, /*trace=*/nullptr);
}

PendingScan RemoteRetrievalBackend::StartScan(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options, obs::RequestTrace* trace) const {
  if (embedded_queries.empty()) {
    return PendingScan(std::vector<ScanCandidatesResult>());
  }
  const size_t d = embedded_queries.front().size();
  for (const Vector& query : embedded_queries) {
    if (query.size() != d) {
      return PendingScan(Status::InvalidArgument(
          "the embedded queries of one batch differ in dims"));
    }
  }
  // Split the batch so neither a frame's queries nor its answer (up to p
  // candidates per query) can outgrow the frame cap.
  const size_t per_frame = static_cast<size_t>(std::min<uint64_t>(
      kMaxWireQueries,
      std::max<uint64_t>(1, kMaxScanCandidatesPerFrame /
                                std::max<uint64_t>({options.p, d, 1}))));
  struct Frame {
    SentCall call;
    size_t queries;
    uint64_t span_start;
  };
  auto frames = std::make_shared<std::vector<Frame>>();
  for (size_t begin = 0; begin < embedded_queries.size(); begin += per_frame) {
    const size_t b = std::min(per_frame, embedded_queries.size() - begin);
    WireRequest request;
    request.op = WireOp::kScan;
    request.options = options;
    request.options.audit_monitor = nullptr;  // client-side only
    request.want_trace = trace != nullptr;
    request.num_queries = b;
    request.query.reserve(b * d);
    for (size_t i = begin; i < begin + b; ++i) {
      request.query.insert(request.query.end(), embedded_queries[i].begin(),
                           embedded_queries[i].end());
    }
    const uint64_t span_start = obs::TraceNowNs(trace);
    frames->push_back({Send(std::move(request)), b, span_start});
  }
  const size_t count = embedded_queries.size();
  return PendingScan([this, frames, trace, count]() -> PendingScan::Result {
    std::vector<ScanCandidatesResult> results;
    results.reserve(count);
    for (Frame& frame : *frames) {
      StatusOr<WireResponse> response = Receive(std::move(frame.call));
      QSE_RETURN_IF_ERROR(response.status());
      WireResponse& scan = response.value();
      if (scan.lists.size() != frame.queries) {
        return Status::DataLoss("kScan answered " +
                                std::to_string(scan.lists.size()) + " of " +
                                std::to_string(frame.queries) +
                                " candidate lists");
      }
      if (trace != nullptr) {
        // Graft server-side spans: their times are relative to the
        // server's receipt of the request, which from this trace's view
        // is no earlier than the frame's send.  Clocks of two processes
        // are never compared — only the server's own durations ride on
        // our anchor.
        for (const WireSpan& span : scan.spans) {
          obs::TraceSpan grafted;
          grafted.name = obs::InternString("remote:" + span.name);
          grafted.start_ns = frame.span_start + span.start_ns;
          grafted.dur_ns = span.dur_ns;
          grafted.tid = span.tid;
          trace->AddSpan(std::move(grafted));
        }
      }
      auto next = scan.neighbors.begin();
      for (const WireScanList& list : scan.lists) {
        ScanCandidatesResult result;
        result.candidates.assign(next, next + list.size);
        next += list.size;
        result.rows = static_cast<size_t>(scan.rows);
        result.rows_pruned = static_cast<size_t>(list.rows_pruned);
        results.push_back(std::move(result));
      }
    }
    return results;
  });
}

StatusOr<RetrievalResponse> RemoteRetrievalBackend::Retrieve(
    const RetrievalRequest& request) const {
  return OnlyResponse(
      pipeline_.Run(&request.dx, 1, request.options, request.trace));
}

StatusOr<std::vector<RetrievalResponse>> RemoteRetrievalBackend::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  return pipeline_.Run(queries.data(), queries.size(), options);
}

Status RemoteRetrievalBackend::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  Vector row = embedder_->Embed(dx);
  return InsertEmbedded(db_id, row);
}

Status RemoteRetrievalBackend::InsertEmbedded(size_t db_id,
                                              const Vector& embedded_row) {
  WireRequest request;
  request.op = WireOp::kInsert;
  request.db_id = db_id;
  request.query = embedded_row;
  return Call(std::move(request)).status();
}

Status RemoteRetrievalBackend::Remove(size_t db_id) {
  WireRequest request;
  request.op = WireOp::kRemove;
  request.db_id = db_id;
  return Call(std::move(request)).status();
}

size_t RemoteRetrievalBackend::size() const {
  WireRequest request;
  request.op = WireOp::kInfo;
  // size() feeds load hints and routing, not correctness; an
  // unreachable peer reads as empty rather than erroring.
  auto call = Call(std::move(request));
  if (!call.ok()) return 0;
  return static_cast<size_t>(call.value().db_size);
}

}  // namespace net
}  // namespace qse
