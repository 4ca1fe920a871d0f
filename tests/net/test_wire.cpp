#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "dyn/delta.hpp"
#include "robust/corrupt.hpp"

namespace {

using coop::StatusCode;
using net::DecodeLimits;
using net::FrameHeader;
using net::MsgType;

FrameHeader header_for(MsgType type) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.request_id = 42;
  h.tenant = 7;
  h.deadline_ns = 5'000'000;
  return h;
}

net::PathBatchRequest sample_path_request() {
  net::PathBatchRequest req;
  req.collection = "main";
  req.queries.resize(3);
  for (std::size_t i = 0; i < req.queries.size(); ++i) {
    req.queries[i].y = static_cast<cat::Key>(100 * i + 1);
    req.queries[i].path = {0, 1, 3};
  }
  return req;
}

TEST(Wire, FrameRoundTripPreservesHeaderAndPayload) {
  const auto payload = net::encode(sample_path_request());
  const auto bytes = net::encode_frame(header_for(MsgType::kPathBatch),
                                       payload);
  auto frame = net::decode_frame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame->header.request_id, 42u);
  EXPECT_EQ(frame->header.tenant, 7u);
  EXPECT_EQ(frame->header.deadline_ns, 5'000'000u);
  EXPECT_EQ(frame->payload, payload);

  auto req = net::decode_path_request(frame->payload);
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->collection, "main");
  ASSERT_EQ(req->queries.size(), 3u);
  EXPECT_EQ(req->queries[1].y, 101);
  EXPECT_EQ(req->queries[2].path, (std::vector<cat::NodeId>{0, 1, 3}));
}

TEST(Wire, EveryPayloadTypeRoundTrips) {
  {
    net::PathBatchResponse m;
    m.served_version = 9;
    m.degraded = true;
    m.answers.resize(2);
    m.answers[0].aug_index = {1, 2};
    m.answers[0].proper_index = {3, 4};
    auto d = net::decode_path_response(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->served_version, 9u);
    EXPECT_TRUE(d->degraded);
    ASSERT_EQ(d->answers.size(), 2u);
    EXPECT_EQ(d->answers[0].proper_index,
              (std::vector<std::uint32_t>{3, 4}));
    // An empty answer round-trips without copying from a null pointer.
    EXPECT_TRUE(d->answers[1].aug_index.empty());
    EXPECT_TRUE(d->answers[1].proper_index.empty());
  }
  {
    net::PointBatchRequest m;
    m.collection = "points";
    m.points = {{1, 2}, {-3, 4}};
    auto d = net::decode_point_request(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->collection, "points");
    ASSERT_EQ(d->points.size(), 2u);
    EXPECT_EQ(d->points[1].x, -3);
  }
  {
    net::PointBatchResponse m;
    m.served_version = 3;
    m.regions = {0, 5, 17};
    auto d = net::decode_point_response(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->regions, (std::vector<std::uint64_t>{0, 5, 17}));
  }
  {
    net::HealthResponse m;
    m.draining = 1;
    m.collections = {{"main", 4, 0}, {"alt", 2, 2}};
    auto d = net::decode_health(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->draining, 1);
    ASSERT_EQ(d->collections.size(), 2u);
    EXPECT_EQ(d->collections[1].name, "alt");
    EXPECT_EQ(d->collections[1].health, 2);
  }
  {
    net::AdminRequest m{"main", "/tmp/x.snap"};
    auto d = net::decode_admin_request(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->collection, "main");
    EXPECT_EQ(d->snapshot_path, "/tmp/x.snap");
  }
  {
    net::AdminResponse m{11};
    auto d = net::decode_admin_response(net::encode(m));
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->version, 11u);
  }
}

TEST(Wire, ErrorPayloadMapsStatusBothWays) {
  const auto s = coop::Status::deadline_exceeded("request expired");
  const net::ErrorResponse e = net::to_wire_error(s);
  auto d = net::decode_error(net::encode(e));
  ASSERT_TRUE(d.ok());
  const coop::Status back = net::from_wire_error(*d);
  EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(back.to_string().find("request expired"), std::string::npos);
}

TEST(Wire, UnknownErrorCodeCollapsesToInternal) {
  net::ErrorResponse e{0xDEAD, "who knows"};
  const coop::Status s = net::from_wire_error(e);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // An error frame claiming "OK" must not become a success.
  net::ErrorResponse ok{0, "not really ok"};
  EXPECT_FALSE(net::from_wire_error(ok).ok());
}

TEST(Wire, DecodeRejectsFramesBelowMinimum) {
  std::vector<std::uint8_t> tiny(10, 0);
  const auto f = net::decode_frame(tiny);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kCorrupted);
  EXPECT_NE(f.status().to_string().find("below"), std::string::npos);
}

TEST(Wire, DecodeRejectsOversizeFrames) {
  DecodeLimits limits;
  limits.max_frame_bytes = 128;
  const std::vector<std::uint8_t> payload(200, 0xAB);
  const auto bytes =
      net::encode_frame(header_for(MsgType::kPathBatch), payload);
  const auto f = net::decode_frame(bytes, limits);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kCorrupted);
  EXPECT_NE(f.status().to_string().find("exceeds"), std::string::npos);
}

TEST(Wire, DecodeRejectsBadMagicAndBadVersion) {
  const auto payload = net::encode(sample_path_request());
  {
    auto bytes = net::encode_frame(header_for(MsgType::kPathBatch), payload);
    bytes[4] ^= 0xFF;  // first magic byte
    const auto f = net::decode_frame(bytes);
    ASSERT_FALSE(f.ok());
    EXPECT_NE(f.status().to_string().find("magic"), std::string::npos);
  }
  {
    FrameHeader h = header_for(MsgType::kPathBatch);
    h.version = 9;
    // encode_frame recomputes header_crc, so the bogus version arrives
    // with a *valid* CRC: this exercises the version check, not the CRC.
    const auto bytes = net::encode_frame(h, payload);
    const auto f = net::decode_frame(bytes);
    ASSERT_FALSE(f.ok());
    EXPECT_NE(f.status().to_string().find("version"), std::string::npos);
  }
}

TEST(Wire, DecodeRejectsHeaderCorruption) {
  const auto payload = net::encode(sample_path_request());
  auto bytes = net::encode_frame(header_for(MsgType::kPathBatch), payload);
  bytes[4 + 8] ^= 0x01;  // flip a bit inside request_id
  const auto f = net::decode_frame(bytes);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kCorrupted);
  EXPECT_NE(f.status().to_string().find("header CRC"), std::string::npos);
}

TEST(Wire, PayloadDecodersRejectTrailingGarbage) {
  auto bytes = net::encode(sample_path_request());
  bytes.push_back(0x00);
  const auto d = net::decode_path_request(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
}

TEST(Wire, PayloadDecodersEnforceLimits) {
  DecodeLimits limits;
  limits.max_queries = 2;
  const auto bytes = net::encode(sample_path_request());  // 3 queries
  const auto d = net::decode_path_request(bytes, limits);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
}

// --- Dynamic-catalog payloads (MUTATE / DYN_PATH_BATCH / COMPACT) ---

dyn::Run sample_run() {
  dyn::Run r;
  r.node = 3;
  r.min_seq = 0;
  r.max_seq = 0;
  r.entries = {{100, 0}, {250, 1}, {900, 0}};
  return r;
}

TEST(Wire, MutatePayloadsRoundTrip) {
  net::MutateRequest req;
  req.collection = "dyn";
  req.runs = {dyn::encode_run(sample_run()),
              dyn::encode_run(dyn::Run{7, 0, 0, {{5, 0}}})};
  auto d = net::decode_mutate_request(net::encode(req));
  ASSERT_TRUE(d.ok()) << d.status().to_string();
  EXPECT_EQ(d->collection, "dyn");
  ASSERT_EQ(d->runs.size(), 2u);
  // Blobs cross the codec byte-identical: the run CRC trailer is intact,
  // so the server-side decode_run ladder sees exactly what was sent.
  EXPECT_EQ(d->runs[0], req.runs[0]);
  auto run = dyn::decode_run(d->runs[0]);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_EQ(run->node, 3u);
  ASSERT_EQ(run->entries.size(), 3u);
  EXPECT_EQ(run->entries[1].tombstone, 1);

  net::MutateResponse resp;
  resp.ack_seq = 77;
  resp.applied = 2;
  auto dr = net::decode_mutate_response(net::encode(resp));
  ASSERT_TRUE(dr.ok()) << dr.status().to_string();
  EXPECT_EQ(dr->ack_seq, 77u);
  EXPECT_EQ(dr->applied, 2u);
}

TEST(Wire, DynPathPayloadsRoundTrip) {
  net::DynPathBatchRequest req;
  req.collection = "dyn";
  req.queries.resize(2);
  req.queries[0].y = 41;
  req.queries[0].path = {0, 2, 5};
  req.queries[1].y = -9;
  req.queries[1].path = {0, 1};
  auto d = net::decode_dyn_path_request(net::encode(req));
  ASSERT_TRUE(d.ok()) << d.status().to_string();
  EXPECT_EQ(d->collection, "dyn");
  ASSERT_EQ(d->queries.size(), 2u);
  EXPECT_EQ(d->queries[0].path, (std::vector<cat::NodeId>{0, 2, 5}));
  EXPECT_EQ(d->queries[1].y, -9);

  net::DynPathBatchResponse resp;
  resp.served_version = 4;
  resp.write_seq = 19;
  resp.answers.resize(2);
  resp.answers[0].keys = {7, cat::kInfinity, 100};
  resp.answers[1].keys = {-5};
  auto dr = net::decode_dyn_path_response(net::encode(resp));
  ASSERT_TRUE(dr.ok()) << dr.status().to_string();
  EXPECT_EQ(dr->served_version, 4u);
  EXPECT_EQ(dr->write_seq, 19u);
  ASSERT_EQ(dr->answers.size(), 2u);
  EXPECT_EQ(dr->answers[0].keys,
            (std::vector<dyn::Key>{7, cat::kInfinity, 100}));
  EXPECT_EQ(dr->answers[1].keys, (std::vector<dyn::Key>{-5}));
}

TEST(Wire, CompactPayloadsRoundTrip) {
  net::CompactRequest req{"dyn"};
  auto d = net::decode_compact_request(net::encode(req));
  ASSERT_TRUE(d.ok()) << d.status().to_string();
  EXPECT_EQ(d->collection, "dyn");

  net::CompactResponse resp{12, 341};
  auto dr = net::decode_compact_response(net::encode(resp));
  ASSERT_TRUE(dr.ok()) << dr.status().to_string();
  EXPECT_EQ(dr->version, 12u);
  EXPECT_EQ(dr->watermark, 341u);
}

TEST(Wire, DynPayloadDecodersRejectTrailingGarbageAndLimits) {
  {
    net::MutateRequest req;
    req.collection = "dyn";
    req.runs = {dyn::encode_run(sample_run())};
    auto bytes = net::encode(req);
    bytes.push_back(0x00);
    const auto d = net::decode_mutate_request(bytes);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
  }
  {
    // Run count rides under the same cap as query count: a peer cannot
    // make the server reserve more blobs than a batch may carry.
    DecodeLimits limits;
    limits.max_queries = 1;
    net::MutateRequest req;
    req.collection = "dyn";
    req.runs = {dyn::encode_run(sample_run()),
                dyn::encode_run(dyn::Run{7, 0, 0, {{5, 0}}})};
    const auto d = net::decode_mutate_request(net::encode(req), limits);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
  }
  {
    net::DynPathBatchResponse resp;
    resp.answers.resize(1);
    resp.answers[0].keys = {1, 2};
    auto bytes = net::encode(resp);
    bytes.push_back(0xFF);
    const auto d = net::decode_dyn_path_response(bytes);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
  }
  {
    auto bytes = net::encode(net::CompactRequest{"dyn"});
    bytes.resize(bytes.size() - 1);
    const auto d = net::decode_compact_request(bytes);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kCorrupted);
  }
}

// --- The satellite contract: every robust::corrupt_frame wire fault is
// rejected by the decoder with a descriptive, typed Status. ---

std::vector<std::uint8_t> fresh_frame() {
  return net::encode_frame(header_for(MsgType::kPathBatch),
                           net::encode(sample_path_request()));
}

TEST(WireFaults, TruncatedFrameIsRejected) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto bytes = fresh_frame();
    ASSERT_TRUE(robust::corrupt_frame(
                    bytes, robust::CorruptionKind::kWireTruncated, seed)
                    .ok());
    const auto f = net::decode_frame(bytes);
    ASSERT_FALSE(f.ok()) << "seed " << seed;
    EXPECT_EQ(f.status().code(), StatusCode::kCorrupted) << "seed " << seed;
    EXPECT_NE(f.status().to_string().find("truncated"), std::string::npos)
        << f.status().to_string();
  }
}

TEST(WireFaults, LengthLieIsRejected) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto bytes = fresh_frame();
    ASSERT_TRUE(robust::corrupt_frame(
                    bytes, robust::CorruptionKind::kWireLengthLie, seed)
                    .ok());
    const auto f = net::decode_frame(bytes);
    ASSERT_FALSE(f.ok()) << "seed " << seed;
    EXPECT_EQ(f.status().code(), StatusCode::kCorrupted) << "seed " << seed;
    EXPECT_NE(f.status().to_string().find("length lie"), std::string::npos)
        << f.status().to_string();
  }
}

TEST(WireFaults, BitFlipIsRejectedByPayloadCrc) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto bytes = fresh_frame();
    ASSERT_TRUE(robust::corrupt_frame(
                    bytes, robust::CorruptionKind::kWireBitFlip, seed)
                    .ok());
    const auto f = net::decode_frame(bytes);
    ASSERT_FALSE(f.ok()) << "seed " << seed;
    EXPECT_EQ(f.status().code(), StatusCode::kCorrupted) << "seed " << seed;
    EXPECT_NE(f.status().to_string().find("CRC"), std::string::npos)
        << f.status().to_string();
  }
}

TEST(WireFaults, CorruptFrameRefusesNonFrames) {
  std::vector<std::uint8_t> junk(100, 0x77);
  const auto s = robust::corrupt_frame(
      junk, robust::CorruptionKind::kWireBitFlip, 1);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Structure corruption kinds do not apply to wire frames.
  auto bytes = fresh_frame();
  const auto s2 = robust::corrupt_frame(
      bytes, robust::CorruptionKind::kUnsortedCatalog, 1);
  EXPECT_FALSE(s2.ok());
}

// --- The served decoder: decode_path_batch refuses exactly what
// decode_path_request / decode_dyn_path_request refuse, with the same
// Status, and otherwise yields the same collection and queries. ---

/// A router with one shard that takes every path: scatter_path_request
/// then fails exactly on the payloads whose layout is bad, through its
/// own walk of the bytes.
class OneShard final : public net::PathRouter {
 public:
  std::uint32_t num_shards() const override { return 1; }
  coop::Expected<std::uint32_t> route(std::span<std::uint32_t>) const override {
    return std::uint32_t{0};
  }
};

/// Seven queries with path lengths 0 to 6 and keys of both signs.
std::vector<serve::PathQuery> mixed_queries() {
  std::mt19937_64 rng(11);
  std::vector<serve::PathQuery> qs(7);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i].y = static_cast<cat::Key>(rng() % 100'000) - 50'000;
    for (std::size_t k = 0; k < i; ++k) {
      qs[i].path.push_back(static_cast<cat::NodeId>(rng() % 500));
    }
  }
  return qs;
}

/// Compare the served decoder on `payload` with the struct decoder
/// `decode` and with the router's walk.  `batch` and `collection` are
/// reused across calls, as a serving thread reuses them.
template <typename Decode>
void expect_same_decode(MsgType verb, const std::vector<std::uint8_t>& payload,
                        const DecodeLimits& limits, Decode decode,
                        std::string& collection, serve::PathBatch& batch,
                        const std::string& where) {
  const coop::Status got =
      net::decode_path_batch(verb, payload, limits, collection, batch);
  const auto ref = decode(payload, limits);
  const auto walk =
      net::scatter_path_request(verb, payload, OneShard{}, limits);
  if (!ref.ok()) {
    ASSERT_FALSE(got.ok()) << where;
    EXPECT_EQ(got.code(), ref.status().code()) << where;
    EXPECT_EQ(got.message(), ref.status().message()) << where;
    ASSERT_FALSE(walk.ok()) << where;
    EXPECT_EQ(walk.status().to_string(), got.to_string()) << where;
    return;
  }
  ASSERT_TRUE(got.ok()) << where << ": " << got.to_string();
  ASSERT_TRUE(walk.ok()) << where;
  EXPECT_EQ(collection, ref->collection) << where;
  const std::span<const serve::PathRef> qs = batch.queries();
  ASSERT_EQ(qs.size(), ref->queries.size()) << where;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(qs[i].y, ref->queries[i].y) << where << " query " << i;
    EXPECT_EQ(std::vector<cat::NodeId>(qs[i].path, qs[i].path + qs[i].len),
              ref->queries[i].path)
        << where << " query " << i;
  }
}

/// Every one-byte flip (masks 0x01, 0x80, 0xFF), every truncation and
/// one trailing byte of `bytes`.
template <typename Check>
void for_each_mutation(const std::vector<std::uint8_t>& bytes, Check check) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> m = bytes;
      m[pos] = static_cast<std::uint8_t>(m[pos] ^ mask);
      check(m, "flip " + std::to_string(mask) + " at byte " +
                   std::to_string(pos));
    }
  }
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    check(std::vector<std::uint8_t>(
              bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)),
          "truncated to " + std::to_string(len));
  }
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  check(longer, "one trailing byte");
}

TEST(FlatDecode, PathRequestMatchesDecodePathRequestUnderEveryMutation) {
  const auto bytes =
      net::encode(net::PathBatchRequest{"main", mixed_queries()});
  std::string collection;
  serve::PathBatch batch;
  for_each_mutation(bytes, [&](const std::vector<std::uint8_t>& m,
                               const std::string& where) {
    expect_same_decode(MsgType::kPathBatch, m, DecodeLimits{},
                       net::decode_path_request, collection, batch, where);
  });
}

TEST(FlatDecode, DynRequestMatchesDecodeDynPathRequestUnderEveryMutation) {
  const auto bytes =
      net::encode(net::DynPathBatchRequest{"main", mixed_queries()});
  std::string collection;
  serve::PathBatch batch;
  for_each_mutation(bytes, [&](const std::vector<std::uint8_t>& m,
                               const std::string& where) {
    expect_same_decode(MsgType::kDynPathBatch, m, DecodeLimits{},
                       net::decode_dyn_path_request, collection, batch, where);
  });
}

TEST(FlatDecode, LimitsRefuseWithTheSameStatus) {
  const auto bytes =
      net::encode(net::PathBatchRequest{"main", mixed_queries()});
  std::string collection;
  serve::PathBatch batch;
  DecodeLimits few_queries;
  few_queries.max_queries = 6;
  DecodeLimits short_paths;
  short_paths.max_path_len = 5;
  DecodeLimits short_names;
  short_names.max_name_len = 3;
  for (const DecodeLimits& limits : {few_queries, short_paths, short_names}) {
    expect_same_decode(MsgType::kPathBatch, bytes, limits,
                       net::decode_path_request, collection, batch, "limits");
    expect_same_decode(MsgType::kDynPathBatch, bytes, limits,
                       net::decode_dyn_path_request, collection, batch,
                       "limits");
    EXPECT_FALSE(
        net::decode_path_batch(MsgType::kPathBatch, bytes, limits, collection,
                               batch)
            .ok());
  }
}

TEST(FlatDecode, FlatResponsesAreByteIdenticalToTheStructEncoders) {
  const std::vector<serve::PathQuery> qs = mixed_queries();
  const std::vector<serve::PathRef> refs = serve::path_refs(qs);
  std::mt19937_64 rng(5);
  serve::PathAnswerSet set;
  dyn::PathKeySet keys;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, qs.size()}) {
    const std::span<const serve::PathRef> batch(refs.data(), n);
    set.reset(batch);
    keys.reset(batch);
    net::PathBatchResponse resp{9, true, {}};
    net::DynPathBatchResponse dyn_resp{9, 33, {}};
    for (std::size_t q = 0; q < n; ++q) {
      serve::PathAnswer& a = resp.answers.emplace_back();
      dyn::PathKeys& k = dyn_resp.answers.emplace_back();
      for (std::uint32_t i = 0; i < refs[q].len; ++i) {
        set.aug_data(q)[i] = static_cast<std::uint32_t>(rng());
        set.proper_data(q)[i] = static_cast<std::uint32_t>(rng());
        keys.keys_data(q)[i] = static_cast<cat::Key>(rng());
        a.aug_index.push_back(set.aug_data(q)[i]);
        a.proper_index.push_back(set.proper_data(q)[i]);
        k.keys.push_back(keys.keys_data(q)[i]);
      }
    }
    EXPECT_EQ(net::encode_path_response(9, true, set), net::encode(resp))
        << n;
    EXPECT_EQ(net::encode_dyn_path_response(9, 33, keys),
              net::encode(dyn_resp))
        << n;
  }
}

}  // namespace
