// Wire codec tests: envelope round-trip fidelity (bit-identical doubles,
// empty and want_stats edge cases, batched kScan frames at B in
// {1, 3, 16} and the hand-built one-query frame) plus fuzz-ish
// robustness — truncation at every byte boundary, oversized length
// prefixes and batch counts, version/magic mismatch, and seeded random
// garbage must yield kInvalidArgument or kDataLoss, never a crash and
// never an allocation beyond the frame.
#include "src/net/wire_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/random.h"
#include "src/util/serialize.h"

namespace qse {
namespace net {
namespace {

WireRequest MakeRequest() {
  WireRequest request;
  request.op = WireOp::kScan;
  request.deadline_budget_ns = 1234567890123ull;
  request.want_trace = true;
  request.options.k = 7;
  request.options.p = 99;
  request.options.num_threads = 3;
  request.options.want_stats = true;
  request.options.priority = RequestPriority::kLow;
  request.options.tenant_id = "tenant-42";
  request.options.filter_precision = FilterPrecision::kFilter32;
  request.db_id = 0xDEADBEEFull;
  request.query = {0.1, -2.5, 1e300, -0.0,
                   std::numeric_limits<double>::denorm_min()};
  return request;
}

WireResponse MakeResponse() {
  WireResponse response;
  response.code = StatusCode::kOk;
  response.neighbors = {{41, 0.125}, {7, 0.25}, {1ull << 40, 1e-300}};
  response.lists = {{2, 31}, {1, 0}};
  response.rows = 150;
  response.rows_pruned = 31;
  response.db_size = 150;
  response.spans = {{"server_scan", 100, 2000, 1}, {"filter", 150, 800, 2}};
  return response;
}

/// A kScan frame of `b` queries of `d` dims each, every value distinct.
WireRequest MakeBatchRequest(size_t b, size_t d) {
  WireRequest request = MakeRequest();
  request.op = WireOp::kScan;
  request.num_queries = b;
  request.query.clear();
  for (size_t i = 0; i < b * d; ++i) {
    request.query.push_back(i % 2 == 0 ? 0.5 * static_cast<double>(i)
                                       : -1.0 / static_cast<double>(i));
  }
  return request;
}

/// Its answer: list q holds q % 4 candidates (empty lists included).
WireResponse MakeBatchResponse(size_t b) {
  WireResponse response;
  response.rows = 1000;
  response.db_size = 1000;
  for (size_t q = 0; q < b; ++q) {
    const size_t size = q % 4;
    response.lists.push_back({size, 7 * q});
    response.rows_pruned += 7 * q;
    for (size_t c = 0; c < size; ++c) {
      response.neighbors.push_back(
          {100 * q + c, 0.25 * static_cast<double>(c) - 1e-300});
    }
  }
  return response;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want[i], 8);
    std::memcpy(&got_bits, &got[i], 8);
    EXPECT_EQ(got_bits, want_bits) << "value " << i;
  }
}

TEST(WireCodecTest, RequestRoundTripIsExact) {
  WireRequest want = MakeRequest();
  std::string payload = EncodeRequest(want);
  WireRequest got;
  ASSERT_TRUE(DecodeRequest(payload, &got).ok());
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.deadline_budget_ns, want.deadline_budget_ns);
  EXPECT_EQ(got.want_trace, want.want_trace);
  EXPECT_EQ(got.options.k, want.options.k);
  EXPECT_EQ(got.options.p, want.options.p);
  EXPECT_EQ(got.options.num_threads, want.options.num_threads);
  EXPECT_EQ(got.options.want_stats, want.options.want_stats);
  EXPECT_EQ(got.options.priority, want.options.priority);
  EXPECT_EQ(got.options.filter_precision, want.options.filter_precision);
  EXPECT_EQ(got.options.tenant_id, want.options.tenant_id);
  EXPECT_EQ(got.db_id, want.db_id);
  ASSERT_EQ(got.query.size(), want.query.size());
  for (size_t i = 0; i < want.query.size(); ++i) {
    // Bit patterns, not values: -0.0 and denormals must survive.
    uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want.query[i], 8);
    std::memcpy(&got_bits, &got.query[i], 8);
    EXPECT_EQ(got_bits, want_bits) << "dim " << i;
  }
}

TEST(WireCodecTest, ResponseRoundTripIsExact) {
  WireResponse want = MakeResponse();
  std::string payload = EncodeResponse(want);
  WireResponse got;
  ASSERT_TRUE(DecodeResponse(payload, &got).ok());
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index);
    uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want.neighbors[i].score, 8);
    std::memcpy(&got_bits, &got.neighbors[i].score, 8);
    EXPECT_EQ(got_bits, want_bits) << "neighbor " << i;
  }
  ASSERT_EQ(got.lists.size(), want.lists.size());
  for (size_t i = 0; i < want.lists.size(); ++i) {
    EXPECT_EQ(got.lists[i].size, want.lists[i].size);
    EXPECT_EQ(got.lists[i].rows_pruned, want.lists[i].rows_pruned);
  }
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.rows_pruned, want.rows_pruned);
  EXPECT_EQ(got.db_size, want.db_size);
  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (size_t i = 0; i < want.spans.size(); ++i) {
    EXPECT_EQ(got.spans[i].name, want.spans[i].name);
    EXPECT_EQ(got.spans[i].start_ns, want.spans[i].start_ns);
    EXPECT_EQ(got.spans[i].dur_ns, want.spans[i].dur_ns);
    EXPECT_EQ(got.spans[i].tid, want.spans[i].tid);
  }
}

TEST(WireCodecTest, EmptyEnvelopesRoundTrip) {
  // The OK-empty scan result (empty remote shard) and an error response
  // with no payload both matter for the serving contract.
  WireResponse empty;
  WireResponse got;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(empty), &got).ok());
  EXPECT_EQ(got.code, StatusCode::kOk);
  EXPECT_TRUE(got.neighbors.empty());
  EXPECT_TRUE(got.lists.empty());
  EXPECT_TRUE(got.spans.empty());
  EXPECT_EQ(got.rows, 0u);

  WireResponse error;
  error.code = StatusCode::kFailedPrecondition;
  error.message = "embedded database is empty";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(error), &got).ok());
  EXPECT_EQ(got.code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(got.message, "embedded database is empty");

  WireRequest info;
  info.op = WireOp::kInfo;
  WireRequest got_req;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(info), &got_req).ok());
  EXPECT_EQ(got_req.op, WireOp::kInfo);
  EXPECT_TRUE(got_req.query.empty());
}

TEST(WireCodecTest, EveryStatusCodeSurvivesTheWire) {
  for (uint8_t c = 0; c <= static_cast<uint8_t>(StatusCode::kDataLoss); ++c) {
    WireResponse response;
    response.code = static_cast<StatusCode>(c);
    response.message = "m";
    WireResponse got;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &got).ok());
    EXPECT_EQ(got.code, response.code);
  }
}

TEST(WireCodecTest, TruncationAtEveryBoundaryIsAnError) {
  for (const WireRequest& frame : {MakeRequest(), MakeBatchRequest(3, 4)}) {
    const std::string request = EncodeRequest(frame);
    for (size_t len = 0; len < request.size(); ++len) {
      WireRequest out;
      Status status = DecodeRequest(request.substr(0, len), &out);
      ASSERT_FALSE(status.ok()) << "prefix length " << len;
      EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                  status.code() == StatusCode::kInvalidArgument)
          << "prefix length " << len << ": " << status.message();
    }
  }
  for (const WireResponse& frame : {MakeResponse(), MakeBatchResponse(6)}) {
    const std::string response = EncodeResponse(frame);
    for (size_t len = 0; len < response.size(); ++len) {
      WireResponse out;
      Status status = DecodeResponse(response.substr(0, len), &out);
      ASSERT_FALSE(status.ok()) << "prefix length " << len;
      EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                  status.code() == StatusCode::kInvalidArgument)
          << "prefix length " << len << ": " << status.message();
    }
  }
}

TEST(WireCodecTest, TrailingBytesAreDataLoss) {
  std::string payload = EncodeRequest(MakeRequest()) + "x";
  WireRequest out;
  EXPECT_EQ(DecodeRequest(payload, &out).code(), StatusCode::kDataLoss);
  std::string response = EncodeResponse(MakeResponse()) + std::string(3, '\0');
  WireResponse rout;
  EXPECT_EQ(DecodeResponse(response, &rout).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, BadMagicAndVersionAreInvalidArgument) {
  std::string payload = EncodeRequest(MakeRequest());
  std::string bad_magic = payload;
  bad_magic[0] ^= 0xFF;
  WireRequest out;
  EXPECT_EQ(DecodeRequest(bad_magic, &out).code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = payload;
  bad_version[4] = 99;  // u16 version follows the u32 magic
  EXPECT_EQ(DecodeRequest(bad_version, &out).code(),
            StatusCode::kInvalidArgument);

  std::string bad_op = payload;
  bad_op[6] = 77;  // u16 tag follows the version
  EXPECT_EQ(DecodeRequest(bad_op, &out).code(), StatusCode::kInvalidArgument);

  // A response frame handed to the request decoder (and vice versa).
  WireResponse rout;
  EXPECT_EQ(DecodeResponse(payload, &rout).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRequest(EncodeResponse(MakeResponse()), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, RetiredOpTagDecodesAsUnknownOp) {
  // Tag 2 was a server-side full retrieval op; it is retired and must
  // not decode, while its neighbors keep their numeric tags.
  std::string payload = EncodeRequest(MakeRequest());
  WireRequest out;
  std::string retired = payload;
  retired[6] = 2;  // u16 tag follows the version
  retired[7] = 0;
  Status status = DecodeRequest(retired, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown wire op 2"), std::string::npos)
      << status;
  for (WireOp op :
       {WireOp::kScan, WireOp::kInsert, WireOp::kRemove, WireOp::kInfo}) {
    WireRequest request = MakeRequest();
    request.op = op;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &out).ok());
    EXPECT_EQ(out.op, op);
  }
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kScan), 1);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kInsert), 3);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kRemove), 4);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kInfo), 5);
}

TEST(WireCodecTest, OutOfRangeEnumsAreInvalidArgument) {
  // Patch encoded enum bytes past their ranges; offsets derived by
  // re-encoding with a sentinel is brittle, so rebuild by hand instead:
  // preamble(8) + budget(8) + want_trace(1) + k/p/threads(24) = 41, then
  // want_stats, priority, precision.
  std::string payload = EncodeRequest(MakeRequest());
  WireRequest out;
  std::string bad = payload;
  bad[41] = 2;  // want_stats flag
  EXPECT_EQ(DecodeRequest(bad, &out).code(), StatusCode::kInvalidArgument);
  bad = payload;
  bad[42] = static_cast<char>(kNumPriorityLanes);
  EXPECT_EQ(DecodeRequest(bad, &out).code(), StatusCode::kInvalidArgument);
  bad = payload;
  bad[43] = static_cast<char>(kNumFilterPrecisions);
  EXPECT_EQ(DecodeRequest(bad, &out).code(), StatusCode::kInvalidArgument);

  std::string response = EncodeResponse(MakeResponse());
  WireResponse rout;
  response[8] = 121;  // status code byte right after the preamble
  EXPECT_EQ(DecodeResponse(response, &rout).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, OversizedLengthPrefixesNeverAllocate) {
  // A frame whose vector claims 2^60 doubles: the decoder must refuse
  // from the length prefix alone.  If it tried to allocate first, this
  // test would OOM rather than fail an expectation.
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);  // budget
  w.WriteU8(0);   // want_trace
  w.WriteU64(1);  // k
  w.WriteU64(1);  // p
  w.WriteU64(0);  // num_threads
  w.WriteU8(0);   // want_stats
  w.WriteU8(0);   // priority
  w.WriteU8(0);   // precision
  w.WriteString("");
  w.WriteU64(0);            // db_id
  w.WriteU64(1);            // num_queries
  w.WriteU64(1ull << 60);   // query length prefix, then nothing
  WireRequest req;
  EXPECT_EQ(DecodeRequest(out.str(), &req).code(), StatusCode::kDataLoss);

  // Same for the response's neighbor count.
  std::ostringstream resp;
  BinaryWriter rw(&resp);
  rw.WriteU32(kWireMagic);
  rw.WriteU16(kWireVersion);
  rw.WriteU16(kResponseTag);
  rw.WriteU8(0);  // kOk
  rw.WriteString("");
  for (int i = 0; i < 2; ++i) rw.WriteU64(0);  // counters
  rw.WriteU64(1);                              // one candidate list
  rw.WriteU64(1ull << 59);                     // its neighbor count
  WireResponse wr;
  EXPECT_EQ(DecodeResponse(resp.str(), &wr).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, FieldCapsAreEnforcedEvenWhenBytesMatch) {
  // A dimension count over kMaxWireDims whose byte length is honest is
  // still refused: plausibility caps bound decoded allocations by
  // policy, not only by frame size.
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);
  w.WriteU8(0);
  w.WriteU64(1);
  w.WriteU64(1);
  w.WriteU64(0);
  w.WriteU8(0);
  w.WriteU8(0);
  w.WriteU8(0);
  std::string big_tenant(kMaxWireTenantId + 1, 't');
  w.WriteString(big_tenant);
  w.WriteU64(0);
  w.WriteU64(1);
  w.WriteDoubleVec({});
  WireRequest req;
  EXPECT_EQ(DecodeRequest(out.str(), &req).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, RandomGarbageNeverCrashes) {
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    WireRequest req;
    WireResponse resp;
    Status rs = DecodeRequest(garbage, &req);
    Status ps = DecodeResponse(garbage, &resp);
    // Random bytes essentially never form a valid frame (the magic
    // alone is a 2^-32 accident); both failure codes are acceptable.
    if (!rs.ok()) {
      EXPECT_TRUE(rs.code() == StatusCode::kDataLoss ||
                  rs.code() == StatusCode::kInvalidArgument);
    }
    if (!ps.ok()) {
      EXPECT_TRUE(ps.code() == StatusCode::kDataLoss ||
                  ps.code() == StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireCodecTest, MutatedValidFramesNeverCrash) {
  // Flip bytes in valid frames — the adversarial neighborhood of real
  // traffic, where decoders that trust any internal length die.  The
  // batched frames put counts and per-list sizes in the line of fire.
  Rng rng(77);
  const std::vector<std::string> frames = {
      EncodeRequest(MakeRequest()), EncodeResponse(MakeResponse()),
      EncodeRequest(MakeBatchRequest(3, 4)),
      EncodeResponse(MakeBatchResponse(6))};
  for (int iter = 0; iter < 4000; ++iter) {
    std::string mutated = frames[static_cast<size_t>(iter) % frames.size()];
    const int flips = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    WireRequest req;
    WireResponse resp;
    // Decode both ways; outcomes may be OK (the flip hit a don't-care
    // byte) or either error code — anything but a crash or hang.
    (void)DecodeRequest(mutated, &req);
    (void)DecodeResponse(mutated, &resp);
  }
}

TEST(WireCodecTest, BatchedScanRoundTripsAtEveryBatchSize) {
  const size_t kDimsPerQuery = 5;
  for (size_t b : {1u, 3u, 16u}) {
    SCOPED_TRACE("B=" + std::to_string(b));
    WireRequest want = MakeBatchRequest(b, kDimsPerQuery);
    WireRequest got;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(want), &got).ok());
    EXPECT_EQ(got.op, WireOp::kScan);
    EXPECT_EQ(got.num_queries, b);
    ExpectSameBits(got.query, want.query);

    WireResponse want_response = MakeBatchResponse(b);
    WireResponse got_response;
    ASSERT_TRUE(
        DecodeResponse(EncodeResponse(want_response), &got_response).ok());
    EXPECT_EQ(got_response.neighbors, want_response.neighbors);
    ASSERT_EQ(got_response.lists.size(), b);
    for (size_t q = 0; q < b; ++q) {
      EXPECT_EQ(got_response.lists[q].size, want_response.lists[q].size);
      EXPECT_EQ(got_response.lists[q].rows_pruned,
                want_response.lists[q].rows_pruned);
    }
    EXPECT_EQ(got_response.rows, want_response.rows);
    EXPECT_EQ(got_response.rows_pruned, want_response.rows_pruned);
  }
}

TEST(WireCodecTest, HandBuiltOneQueryScanFrameDecodes) {
  // The shape of a one-query kScan frame built field by field, as the
  // benchmark's codec probe does: no count and no lists set.  The count
  // defaults to one query and the answer travels as one list.
  WireRequest request;
  request.op = WireOp::kScan;
  request.options = RetrievalOptions(10, 100);
  request.query = {0.5, -1.5, 2.25};
  WireRequest got;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &got).ok());
  EXPECT_EQ(got.num_queries, 1u);
  EXPECT_EQ(got.query, request.query);
  EXPECT_EQ(got.options.p, 100u);

  WireResponse response;
  response.neighbors = {{3, 0.5}, {9, 0.75}};
  response.rows = 40;
  response.rows_pruned = 12;
  WireResponse got_response;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &got_response).ok());
  EXPECT_EQ(got_response.neighbors, response.neighbors);
  ASSERT_EQ(got_response.lists.size(), 1u);
  EXPECT_EQ(got_response.lists[0].size, 2u);
  EXPECT_EQ(got_response.lists[0].rows_pruned, 12u);
  EXPECT_EQ(got_response.rows, 40u);
  EXPECT_EQ(got_response.rows_pruned, 12u);
}

TEST(WireCodecTest, VersionOneFramesAreRefused) {
  std::string payload = EncodeRequest(MakeRequest());
  payload[4] = 1;  // u16 version follows the u32 magic
  payload[5] = 0;
  WireRequest out;
  Status status = DecodeRequest(payload, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unsupported wire version 1"),
            std::string::npos)
      << status;
  std::string response = EncodeResponse(MakeResponse());
  response[4] = 1;
  response[5] = 0;
  WireResponse rout;
  EXPECT_EQ(DecodeResponse(response, &rout).code(),
            StatusCode::kInvalidArgument);
}

/// A kScan request frame with a hand-written count and query prefix.
std::string ScanFrameWithCount(uint64_t num_queries, uint64_t values,
                               size_t values_written) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);  // budget
  w.WriteU8(0);   // want_trace
  w.WriteU64(1);  // k
  w.WriteU64(1);  // p
  w.WriteU64(0);  // num_threads
  w.WriteU8(0);   // want_stats
  w.WriteU8(0);   // priority
  w.WriteU8(0);   // precision
  w.WriteString("");
  w.WriteU64(0);  // db_id
  w.WriteU64(num_queries);
  w.WriteU64(values);
  for (size_t i = 0; i < values_written; ++i) w.WriteDouble(1.0);
  return out.str();
}

/// A response frame with hand-written list headers and no neighbors.
std::string ResponseFrameWithLists(uint64_t num_lists,
                                   const std::vector<uint64_t>& sizes) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(kResponseTag);
  w.WriteU8(0);  // kOk
  w.WriteString("");
  w.WriteU64(0);  // rows
  w.WriteU64(0);  // db_size
  w.WriteU64(num_lists);
  for (uint64_t size : sizes) {
    w.WriteU64(size);
    w.WriteU64(0);  // rows_pruned
  }
  w.WriteU64(0);  // spans
  return out.str();
}

TEST(WireCodecTest, BatchCountsAreValidatedBeforeAllocation) {
  WireRequest req;
  // Sanity: the hand-built frame decodes when its counts are honest.
  ASSERT_TRUE(DecodeRequest(ScanFrameWithCount(2, 4, 4), &req).ok());
  EXPECT_EQ(req.num_queries, 2u);
  // Zero queries, more than the cap, more than the frame could hold, and
  // values that do not split evenly.
  EXPECT_EQ(DecodeRequest(ScanFrameWithCount(0, 0, 0), &req).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRequest(ScanFrameWithCount(kMaxWireQueries + 1, 0, 0), &req)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRequest(ScanFrameWithCount(1ull << 60, 4, 4), &req).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRequest(ScanFrameWithCount(3, 4, 4), &req).code(),
            StatusCode::kDataLoss);

  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(ResponseFrameWithLists(2, {0, 0}), &resp).ok());
  EXPECT_EQ(resp.lists.size(), 2u);
  // A list count no frame could hold, one past the cap with honest
  // headers, a list over the neighbor cap, lists whose sum passes it,
  // and sizes the remaining bytes cannot back.
  EXPECT_EQ(DecodeResponse(ResponseFrameWithLists(1ull << 59, {}), &resp)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeResponse(ResponseFrameWithLists(
                               kMaxWireQueries + 1,
                               std::vector<uint64_t>(kMaxWireQueries + 1, 0)),
                           &resp)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeResponse(ResponseFrameWithLists(1, {kMaxWireNeighbors + 1}),
                           &resp)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeResponse(ResponseFrameWithLists(
                               2, {kMaxWireNeighbors, kMaxWireNeighbors}),
                           &resp)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeResponse(ResponseFrameWithLists(2, {3, 0}), &resp).code(),
            StatusCode::kDataLoss);
}

TEST(ByteReaderTest, ScalarsAndBounds) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU8(0xAB);
  w.WriteU16(0xCDEF);
  w.WriteU32(0x12345678);
  w.WriteU64(1ull << 50);
  const std::string buf = out.str();
  ByteReader r(buf);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  EXPECT_EQ(r.remaining(), buf.size());
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xCDEF);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 1ull << 50);
  EXPECT_TRUE(r.exhausted());
  // One more read past the end: kDataLoss, not UB.
  EXPECT_EQ(r.ReadU8(&u8).code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, LengthPrefixValidatedBeforeResize) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU64(1ull << 61);  // claims more doubles than bytes exist
  const std::string buf = out.str();
  ByteReader r(buf);
  std::vector<double> v;
  EXPECT_EQ(r.ReadDoubleVec(&v).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(v.empty());
}

TEST(ByteReaderTest, MaxElemsCapApplies) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteString("abcdefgh");
  const std::string buf = out.str();
  ByteReader ok_reader(buf);
  std::string s;
  EXPECT_TRUE(ok_reader.ReadString(&s, 8).ok());
  EXPECT_EQ(s, "abcdefgh");
  ByteReader capped_reader(buf);
  EXPECT_EQ(capped_reader.ReadString(&s, 7).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace net
}  // namespace qse
