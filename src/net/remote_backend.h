#ifndef QSE_NET_REMOTE_BACKEND_H_
#define QSE_NET_REMOTE_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/net/socket_transport.h"
#include "src/net/wire_codec.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/retrieval/retrieval_pipeline.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/timer.h"

namespace qse {
namespace net {

struct RemoteBackendOptions {
  TransportOptions transport;
  /// Idempotent read RPCs (kScan / kInfo) are retried once
  /// on kUnavailable / kDataLoss over a fresh connection — a dropped
  /// connection between requests is routine, not an error.  Mutations
  /// are never retried (a duplicate Insert is not idempotent).
  bool retry_reads = true;
  /// Dial attempts per RPC when no pooled connection exists: a refused
  /// or timed-out CONNECT is retried with doubling backoff up to this
  /// many total attempts.  Unlike post-send read retries, dial retries
  /// are safe for mutations too — nothing has been sent yet — which is
  /// what lets a client ride out a shard server restart (kill, recover
  /// from WAL, re-listen) without itself being restarted.  1 = dial
  /// once, fail fast.
  size_t reconnect_attempts = 4;
  /// Backoff before the second dial attempt; doubles per attempt.
  std::chrono::milliseconds reconnect_backoff{10};
};

/// A RetrievalBackend whose data lives in another process, behind a
/// RetrievalServer.  Drop-in for local engines: ShardedRetrievalEngine's
/// composed constructor or HedgedReplicaBackend stack on it with zero
/// scatter/gather changes.
///
/// Division of labor (the paper's pipeline, cut at the only seam that
/// survives a process boundary): the EMBEDDING step runs client-side —
/// `dx` is an opaque closure — and only the embedded vectors cross the
/// wire (kScan).  The server runs the filter scan, one pass for a whole
/// batch; the client refines the returned candidates with its own dx.
/// Retrieve is the shared RetrievalPipeline with the kScan RPC as its
/// single source, so it reproduces RetrievalEngine bit for bit; under
/// the sharded engine, remote candidate lists merge exactly as local
/// ones.
///
/// Deadlines cross the wire as REMAINING budget: each RPC computes
/// options.deadline - now at send time, the server re-anchors against
/// its own clock, and the client caps its socket read timeout to the
/// same budget, so an expired deadline fails at whichever side notices
/// first.
///
/// An RPC has a send half and a receive half.  Every call sends, then
/// receives; StartScanCandidatesBatch returns between the two, so a
/// sharded engine sends every shard's kScan before it waits on any.
/// qse_remote_rpc_latency_ns runs from send to receive.
///
/// Thread-safety: safe for concurrent use; connections are pooled, each
/// RPC checks one out (or dials a new one) and returns it once its
/// answer has been read.  A connection whose answer was never read is
/// closed, never pooled.
class RemoteRetrievalBackend : public RetrievalBackend {
 public:
  /// `embedder` runs the client-side embedding step and must match the
  /// remote database's dimensionality.  Borrowed, must outlive this.
  RemoteRetrievalBackend(const Embedder* embedder, std::string host,
                         uint16_t port, RemoteBackendOptions options = {});

  /// Embeds client-side, scans over kScan (grafting the server's spans
  /// into a sampled request's trace), refines with the caller's dx.
  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  /// The pipeline over a batch: embeds client-side, then one kScan per
  /// query group (one group unless options.num_threads splits it), sent
  /// before any answer is read, refines locally.
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override;

  /// ScanCandidatesBatch of one query.
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override;

  /// Ships the embedded queries in one kScan frame (a batch too large for
  /// one frame is split, see kMaxScanCandidatesPerFrame) and returns the
  /// remote backend's top-p for each, scanned in one pass over one
  /// snapshot.  The first failed frame fails the batch.
  /// StartScanCandidatesBatch, then Wait.
  StatusOr<std::vector<ScanCandidatesResult>> ScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const override;

  /// Sends every kScan frame of the batch, each on its own checked-out
  /// or dialed connection, and returns; Wait() receives and decodes the
  /// answers and pools the connections.  One frame per connection: a
  /// server answers a connection's frames one at a time, and a large
  /// unread answer could stall the send of the next frame.
  PendingScan StartScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const override;

  /// Embeds client-side, ships the row (kInsert).
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;
  Status Remove(size_t db_id) override;

  /// Remote size via kInfo; 0 when the peer is unreachable (size() has
  /// no error channel — used for load hints, not correctness).
  size_t size() const override;

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// An RPC past its send half: the connection its answer will arrive
  /// on, or why the request could not be sent.
  struct SentCall {
    /// Kept for the read retry.
    WireRequest request;
    StatusOr<Socket> sock;
    MonotonicClock::time_point start;
  };

  /// StartScanCandidatesBatch; a non-null `trace` asks the server for
  /// its spans, grafted under each frame's send time when collected.
  PendingScan StartScan(const std::vector<Vector>& embedded_queries,
                        const RetrievalOptions& options,
                        obs::RequestTrace* trace) const;
  /// Send half: computes the deadline budget from options, then checks
  /// out or dials a connection and sends.  A failure to send is carried
  /// to Receive, which owns the retry policy.
  SentCall Send(WireRequest request) const;
  /// Receive half: receives and decodes the answer and pools the
  /// connection.  A read whose send or receive failed on a transport
  /// fault is sent once more over a fresh connection.
  StatusOr<WireResponse> Receive(SentCall call) const;
  /// One RPC: Send, then Receive.
  StatusOr<WireResponse> Call(WireRequest request) const;
  /// One attempt's send: checkout or dial, send.
  StatusOr<Socket> SendOnce(const WireRequest& request,
                            const std::string& payload) const;
  /// One attempt's receive over what SendOnce returned.
  StatusOr<WireResponse> ReceiveOnce(StatusOr<Socket> sent) const;
  /// Dials a fresh connection, retrying refused/unreachable connects
  /// with doubling backoff per options.reconnect_* within the deadline
  /// budget (0 = no deadline).
  StatusOr<Socket> Dial(uint64_t deadline_budget_ns) const;

  const Embedder* embedder_;
  std::string host_;
  uint16_t port_;
  RemoteBackendOptions options_;

  mutable std::mutex pool_mu_;
  mutable std::vector<Socket> pool_;

  obs::Counter* rpcs_total_;
  obs::Counter* rpc_errors_total_;
  obs::Counter* rpc_retries_total_;
  obs::Counter* reconnects_total_;
  obs::Histogram* rpc_latency_ns_;
  RetrievalPipeline pipeline_;
};

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_REMOTE_BACKEND_H_
