#include "net/wire.hpp"

#include <algorithm>
#include <cstring>

namespace net {

using coop::Status;

namespace {

static_assert(sizeof(serve::NodeId) == sizeof(std::uint32_t),
              "path node ids travel as u32");
static_assert(sizeof(dyn::Key) == sizeof(std::int64_t),
              "dynamic answer keys travel as i64");

/// Encoded size of a string or blob: its u32 length, then its bytes.
std::size_t str_size(std::size_t n) { return sizeof(std::uint32_t) + n; }

/// Little-endian byte builder.  Each encoder reserves the payload's exact
/// size up front, so encoding allocates once; arrays go in with one copy
/// each (the platform is little-endian, see serve/arena.hpp).
class Writer {
 public:
  explicit Writer(std::size_t size) { buf_.reserve(size); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  /// A vector's or span's elements, in one copy.
  template <typename Array>
  void array(const Array& v) {
    raw(v.data(), v.size() * sizeof(*v.data()));
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over hostile payload bytes.
/// Every getter reports the failing field by name, so a rejected frame's
/// Status tells the operator *what* was malformed, not just "bad".  An
/// array is checked once and copied with one memcpy.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const DecodeLimits& limits)
      : bytes_(bytes), limits_(limits) {}

  [[nodiscard]] Status u8(std::uint8_t& out, const char* what) {
    return raw(&out, sizeof(out), what);
  }
  [[nodiscard]] Status u32(std::uint32_t& out, const char* what) {
    return raw(&out, sizeof(out), what);
  }
  [[nodiscard]] Status u64(std::uint64_t& out, const char* what) {
    return raw(&out, sizeof(out), what);
  }
  [[nodiscard]] Status i64(std::int64_t& out, const char* what) {
    return raw(&out, sizeof(out), what);
  }
  [[nodiscard]] Status str(std::string& out, const char* what) {
    std::uint32_t len = 0;
    if (Status s = u32(len, what); !s.ok()) {
      return s;
    }
    if (len > limits_.max_name_len) {
      return overlong(what, len, limits_.max_name_len);
    }
    const std::uint8_t* at = nullptr;
    if (Status s = bytes(len, at, what); !s.ok()) {
      return s;
    }
    out.assign(reinterpret_cast<const char*>(at), len);
    return coop::OkStatus();
  }
  [[nodiscard]] Status blob(std::vector<std::uint8_t>& out,
                            const char* what) {
    std::uint32_t len = 0;
    if (Status s = u32(len, what); !s.ok()) {
      return s;
    }
    const std::uint8_t* at = nullptr;
    if (Status s = bytes(len, at, what); !s.ok()) {
      return s;
    }
    out.assign(at, at + len);
    return coop::OkStatus();
  }
  /// `n` elements of T in one bounds check and one copy.
  template <typename T>
  [[nodiscard]] Status array(std::vector<T>& out, std::size_t n,
                             const char* what) {
    if (n > remaining() / sizeof(T)) {
      return truncated(what);
    }
    out.resize(n);
    if (n != 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return coop::OkStatus();
  }
  /// Step over `n` bytes, pointing `at` at the first of them.
  [[nodiscard]] Status bytes(std::size_t n, const std::uint8_t*& at,
                             const char* what) {
    if (n > remaining()) {
      return truncated(what);
    }
    at = bytes_.data() + pos_;
    pos_ += n;
    return coop::OkStatus();
  }
  /// A count field that bounds a following repetition.
  [[nodiscard]] Status count(std::uint32_t& out, const char* what,
                             std::size_t max) {
    if (Status s = u32(out, what); !s.ok()) {
      return s;
    }
    if (out > max) {
      return overlong(what, out, max);
    }
    return coop::OkStatus();
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Decoders call this last: accepting trailing garbage would let a
  /// peer smuggle bytes past the payload CRC unexamined.
  [[nodiscard]] Status done(const char* type) const {
    if (pos_ != bytes_.size()) {
      return Status::corrupted(std::string(type) + " payload has " +
                               std::to_string(remaining()) +
                               " trailing bytes");
    }
    return coop::OkStatus();
  }

 private:
  [[nodiscard]] Status raw(void* out, std::size_t n, const char* what) {
    if (n > remaining()) {
      return truncated(what);
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return coop::OkStatus();
  }
  [[nodiscard]] static Status truncated(const char* what) {
    return Status::corrupted(std::string("payload truncated reading ") +
                             what);
  }
  [[nodiscard]] static Status overlong(const char* what, std::uint64_t got,
                                       std::uint64_t max) {
    return Status::corrupted(std::string(what) + " " + std::to_string(got) +
                             " exceeds limit " + std::to_string(max));
  }

  std::span<const std::uint8_t> bytes_;
  const DecodeLimits& limits_;
  std::size_t pos_ = 0;
};

/// The fewest bytes one query (i64 key, u32 length) and one answer (u32
/// length) take: a count is trusted for reservations only this far.
constexpr std::size_t kMinQueryBytes =
    sizeof(std::int64_t) + sizeof(std::uint32_t);
constexpr std::size_t kMinAnswerBytes = sizeof(std::uint32_t);

/// PATH_BATCH and DYN_PATH_BATCH share one request layout and differ
/// only in the names their messages use.
struct PathNames {
  const char* batch_size;
  const char* request;
  const char* response;
};

PathNames path_names(MsgType verb) {
  if (verb == MsgType::kDynPathBatch) {
    return {"dyn batch size", "dyn path request", "dyn path response"};
  }
  return {"path batch size", "path request", "path response"};
}

std::vector<std::uint8_t> encode_queries(
    const std::string& collection,
    const std::vector<serve::PathQuery>& queries) {
  std::size_t size = str_size(collection.size()) + sizeof(std::uint32_t);
  for (const serve::PathQuery& q : queries) {
    size += kMinQueryBytes + q.path.size() * sizeof(std::uint32_t);
  }
  Writer w(size);
  w.str(collection);
  w.u32(static_cast<std::uint32_t>(queries.size()));
  for (const serve::PathQuery& q : queries) {
    w.i64(q.y);
    w.u32(static_cast<std::uint32_t>(q.path.size()));
    w.array(q.path);
  }
  return w.take();
}

/// Walk a PATH_BATCH or DYN_PATH_BATCH request (`verb`): the one
/// refusal ladder of both verbs and of every decoder over them.  Once the
/// query count is read, `reserve(k)` learns how many queries the bytes
/// left could hold at most; then each query goes to `add(y, len, nodes)`,
/// where `nodes` points at its `len` node ids (4·len bytes, unaligned)
/// inside the payload.
template <typename Reserve, typename Add>
Status walk_queries(std::span<const std::uint8_t> payload,
                    const DecodeLimits& limits, MsgType verb,
                    std::string& collection, Reserve reserve, Add add) {
  const PathNames names = path_names(verb);
  Reader r(payload, limits);
  if (Status s = r.str(collection, "collection name"); !s.ok()) {
    return s;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, names.batch_size, limits.max_queries); !s.ok()) {
    return s;
  }
  reserve(std::min<std::size_t>(n, r.remaining() / kMinQueryBytes));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int64_t y = 0;
    if (Status s = r.i64(y, "query key"); !s.ok()) {
      return s;
    }
    std::uint32_t len = 0;
    if (Status s = r.count(len, "path length", limits.max_path_len);
        !s.ok()) {
      return s;
    }
    const std::uint8_t* nodes = nullptr;
    if (Status s = r.bytes(std::size_t{len} * sizeof(std::uint32_t), nodes,
                           "path node");
        !s.ok()) {
      return s;
    }
    add(y, len, nodes);
  }
  return r.done(names.request);
}

Status decode_queries(std::span<const std::uint8_t> payload,
                      const DecodeLimits& limits, MsgType verb,
                      std::string& collection,
                      std::vector<serve::PathQuery>& queries) {
  return walk_queries(
      payload, limits, verb, collection,
      [&](std::size_t k) { queries.reserve(k); },
      [&](std::int64_t y, std::uint32_t len, const std::uint8_t* nodes) {
        serve::PathQuery& q = queries.emplace_back();
        q.y = y;
        q.path.resize(len);
        if (len != 0) {  // an empty vector's data() may be null
          std::memcpy(q.path.data(), nodes, len * sizeof(std::uint32_t));
        }
      });
}

/// A PATH_BATCH response of `n` answers: answer q is aug(q) and
/// proper(q), arrays of one length (its `len` field is aug(q)'s).
template <typename Aug, typename Proper>
std::vector<std::uint8_t> encode_path_answers(std::uint64_t served_version,
                                              bool degraded, std::size_t n,
                                              Aug aug, Proper proper) {
  std::size_t size =
      sizeof(std::uint64_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t);
  for (std::size_t q = 0; q < n; ++q) {
    size += kMinAnswerBytes +
            (aug(q).size() + proper(q).size()) * sizeof(std::uint32_t);
  }
  Writer w(size);
  w.u64(served_version);
  w.u8(degraded ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t q = 0; q < n; ++q) {
    w.u32(static_cast<std::uint32_t>(aug(q).size()));
    w.array(aug(q));
    w.array(proper(q));
  }
  return w.take();
}

/// A DYN_PATH_BATCH response of `n` answers: answer q is keys(q).
template <typename Keys>
std::vector<std::uint8_t> encode_dyn_answers(std::uint64_t served_version,
                                             std::uint64_t write_seq,
                                             std::size_t n, Keys keys) {
  std::size_t size = 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
  for (std::size_t q = 0; q < n; ++q) {
    size += kMinAnswerBytes + keys(q).size() * sizeof(dyn::Key);
  }
  Writer w(size);
  w.u64(served_version);
  w.u64(write_seq);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t q = 0; q < n; ++q) {
    w.u32(static_cast<std::uint32_t>(keys(q).size()));
    w.array(keys(q));
  }
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameHeader h,
                                       std::span<const std::uint8_t> payload) {
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.header_crc = frame_header_crc(h);
  const auto total = static_cast<std::uint32_t>(sizeof(FrameHeader) +
                                                payload.size() +
                                                sizeof(std::uint32_t));
  Writer w(sizeof(total) + total);
  w.u32(total);
  w.raw(&h, sizeof(h));
  w.raw(payload.data(), payload.size());
  w.u32(snapshot::crc32(payload.data(), payload.size()));
  return w.take();
}

Status check_frame(std::uint32_t prefix, const FrameHeader& h,
                   std::span<const std::uint8_t> payload,
                   std::uint32_t trailer) {
  if (h.magic != kWireMagic) {
    return Status::corrupted("bad frame magic (not a coopserve frame)");
  }
  if (h.version != kWireVersion) {
    return Status::corrupted("unsupported frame version " +
                             std::to_string(h.version) + " (expected " +
                             std::to_string(kWireVersion) + ")");
  }
  if (h.header_crc != frame_header_crc(h)) {
    return Status::corrupted("frame header CRC mismatch");
  }
  // The header survived its CRC, so a disagreement here means the length
  // prefix lies about the payload (or bytes were dropped after the
  // header): reject before trusting either length.
  const std::size_t expect =
      sizeof(h) + std::size_t{h.payload_len} + sizeof(std::uint32_t);
  if (std::size_t{prefix} != expect) {
    return Status::corrupted(
        "frame length lie: prefix promises " + std::to_string(prefix) +
        " bytes but the header's payload_len implies " +
        std::to_string(expect));
  }
  if (trailer != snapshot::crc32(payload.data(), payload.size())) {
    return Status::corrupted("frame payload CRC mismatch (corrupted in "
                             "flight)");
  }
  return coop::OkStatus();
}

coop::Expected<Frame> decode_frame(std::span<const std::uint8_t> bytes,
                                   const DecodeLimits& limits) {
  if (bytes.size() < kFrameOverhead) {
    return Status::corrupted("frame truncated: " +
                             std::to_string(bytes.size()) +
                             " bytes is below the " +
                             std::to_string(kFrameOverhead) +
                             "-byte minimum frame");
  }
  if (bytes.size() > limits.max_frame_bytes ||
      bytes.size() > kAbsoluteMaxFrame) {
    return Status::corrupted("frame of " + std::to_string(bytes.size()) +
                             " bytes exceeds the frame cap of " +
                             std::to_string(limits.max_frame_bytes));
  }
  std::uint32_t prefix = 0;
  std::memcpy(&prefix, bytes.data(), sizeof(prefix));
  if (std::size_t{prefix} + sizeof(prefix) != bytes.size()) {
    return Status::corrupted(
        "frame truncated: length prefix promises " + std::to_string(prefix) +
        " bytes but " + std::to_string(bytes.size() - sizeof(prefix)) +
        " follow");
  }
  Frame f;
  std::memcpy(&f.header, bytes.data() + sizeof(prefix), sizeof(f.header));
  const std::span<const std::uint8_t> payload = bytes.subspan(
      sizeof(prefix) + sizeof(f.header), bytes.size() - kFrameOverhead);
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, payload.data() + payload.size(), sizeof(trailer));
  if (Status s = check_frame(prefix, f.header, payload, trailer); !s.ok()) {
    return s;
  }
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

// --------------------------------------------------------------------
// Payload codecs.

std::vector<std::uint8_t> encode(const PathBatchRequest& m) {
  return encode_queries(m.collection, m.queries);
}

coop::Expected<PathBatchRequest> decode_path_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  PathBatchRequest m;
  if (Status s = decode_queries(payload, limits, MsgType::kPathBatch,
                                m.collection, m.queries);
      !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const PathBatchResponse& m) {
  return encode_path_answers(
      m.served_version, m.degraded, m.answers.size(),
      [&](std::size_t q) -> const std::vector<std::uint32_t>& {
        return m.answers[q].aug_index;
      },
      [&](std::size_t q) -> const std::vector<std::uint32_t>& {
        return m.answers[q].proper_index;
      });
}

coop::Expected<PathBatchResponse> decode_path_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  PathBatchResponse m;
  std::uint8_t degraded = 0;
  if (Status s = r.u64(m.served_version, "served version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u8(degraded, "degraded flag"); !s.ok()) {
    return s;
  }
  m.degraded = degraded != 0;
  std::uint32_t n = 0;
  if (Status s = r.count(n, "answer count", limits.max_queries); !s.ok()) {
    return s;
  }
  m.answers.reserve(std::min<std::size_t>(n, r.remaining() / kMinAnswerBytes));
  for (std::uint32_t i = 0; i < n; ++i) {
    serve::PathAnswer& a = m.answers.emplace_back();
    std::uint32_t len = 0;
    if (Status s = r.count(len, "answer path length", limits.max_path_len);
        !s.ok()) {
      return s;
    }
    if (Status s = r.array(a.aug_index, len, "aug index"); !s.ok()) {
      return s;
    }
    if (Status s = r.array(a.proper_index, len, "proper index"); !s.ok()) {
      return s;
    }
  }
  if (Status s = r.done("path response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const PointBatchRequest& m) {
  Writer w(str_size(m.collection.size()) + sizeof(std::uint32_t) +
           m.points.size() * 2 * sizeof(std::int64_t));
  w.str(m.collection);
  w.u32(static_cast<std::uint32_t>(m.points.size()));
  for (const geom::Point& p : m.points) {
    w.i64(p.x);
    w.i64(p.y);
  }
  return w.take();
}

coop::Expected<PointBatchRequest> decode_point_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  PointBatchRequest m;
  if (Status s = r.str(m.collection, "collection name"); !s.ok()) {
    return s;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, "point batch size", limits.max_queries);
      !s.ok()) {
    return s;
  }
  m.points.resize(n);
  for (geom::Point& p : m.points) {
    std::int64_t x = 0;
    std::int64_t y = 0;
    if (Status s = r.i64(x, "point x"); !s.ok()) {
      return s;
    }
    if (Status s = r.i64(y, "point y"); !s.ok()) {
      return s;
    }
    p.x = x;
    p.y = y;
  }
  if (Status s = r.done("point request"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const PointBatchResponse& m) {
  Writer w(sizeof(std::uint64_t) + sizeof(std::uint8_t) +
           sizeof(std::uint32_t) + m.regions.size() * sizeof(std::uint64_t));
  w.u64(m.served_version);
  w.u8(m.degraded ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.regions.size()));
  w.array(m.regions);
  return w.take();
}

coop::Expected<PointBatchResponse> decode_point_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  PointBatchResponse m;
  std::uint8_t degraded = 0;
  if (Status s = r.u64(m.served_version, "served version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u8(degraded, "degraded flag"); !s.ok()) {
    return s;
  }
  m.degraded = degraded != 0;
  std::uint32_t n = 0;
  if (Status s = r.count(n, "region count", limits.max_queries); !s.ok()) {
    return s;
  }
  if (Status s = r.array(m.regions, n, "region index"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("point response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const ErrorResponse& m) {
  Writer w(sizeof(std::uint32_t) + str_size(m.message.size()));
  w.u32(m.code);
  w.str(m.message);
  return w.take();
}

coop::Expected<ErrorResponse> decode_error(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  // Error messages reuse the name limit scaled up: they carry full Status
  // text, which can legitimately exceed a collection name.
  DecodeLimits wide = limits;
  wide.max_name_len = limits.max_name_len * 4;
  Reader r(payload, wide);
  ErrorResponse m;
  if (Status s = r.u32(m.code, "error code"); !s.ok()) {
    return s;
  }
  if (Status s = r.str(m.message, "error message"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("error response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const HealthResponse& m) {
  std::size_t size = sizeof(std::uint8_t) + sizeof(std::uint32_t);
  for (const CollectionHealth& c : m.collections) {
    size += str_size(c.name.size()) + sizeof(std::uint64_t) +
            sizeof(std::uint8_t);
  }
  Writer w(size);
  w.u8(m.draining);
  w.u32(static_cast<std::uint32_t>(m.collections.size()));
  for (const CollectionHealth& c : m.collections) {
    w.str(c.name);
    w.u64(c.version);
    w.u8(c.health);
  }
  return w.take();
}

coop::Expected<HealthResponse> decode_health(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  HealthResponse m;
  if (Status s = r.u8(m.draining, "draining flag"); !s.ok()) {
    return s;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, "collection count", limits.max_queries);
      !s.ok()) {
    return s;
  }
  m.collections.resize(n);
  for (CollectionHealth& c : m.collections) {
    if (Status s = r.str(c.name, "collection name"); !s.ok()) {
      return s;
    }
    if (Status s = r.u64(c.version, "collection version"); !s.ok()) {
      return s;
    }
    if (Status s = r.u8(c.health, "collection health"); !s.ok()) {
      return s;
    }
  }
  if (Status s = r.done("health response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const AdminRequest& m) {
  Writer w(str_size(m.collection.size()) + str_size(m.snapshot_path.size()));
  w.str(m.collection);
  w.str(m.snapshot_path);
  return w.take();
}

coop::Expected<AdminRequest> decode_admin_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  AdminRequest m;
  if (Status s = r.str(m.collection, "collection name"); !s.ok()) {
    return s;
  }
  if (Status s = r.str(m.snapshot_path, "snapshot path"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("admin request"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const AdminResponse& m) {
  Writer w(sizeof(std::uint64_t));
  w.u64(m.version);
  return w.take();
}

coop::Expected<AdminResponse> decode_admin_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  AdminResponse m;
  if (Status s = r.u64(m.version, "published version"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("admin response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const MutateRequest& m) {
  std::size_t size = str_size(m.collection.size()) + sizeof(std::uint32_t);
  for (const std::vector<std::uint8_t>& r : m.runs) {
    size += str_size(r.size());
  }
  Writer w(size);
  w.str(m.collection);
  w.u32(static_cast<std::uint32_t>(m.runs.size()));
  for (const std::vector<std::uint8_t>& r : m.runs) {
    w.blob(r);
  }
  return w.take();
}

coop::Expected<MutateRequest> decode_mutate_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  MutateRequest m;
  if (Status s = r.str(m.collection, "collection name"); !s.ok()) {
    return s;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, "mutate run count", limits.max_queries);
      !s.ok()) {
    return s;
  }
  m.runs.resize(n);
  for (std::vector<std::uint8_t>& blob : m.runs) {
    // The blob itself is NOT parsed here: it travels opaque so the
    // server-side dyn::decode_run sees exactly the bytes the client
    // built (or an attacker forged) and the delta rejection ladder is
    // the single authority on run validity.
    if (Status s = r.blob(blob, "encoded run"); !s.ok()) {
      return s;
    }
  }
  if (Status s = r.done("mutate request"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const MutateResponse& m) {
  Writer w(sizeof(std::uint64_t) + sizeof(std::uint32_t));
  w.u64(m.ack_seq);
  w.u32(m.applied);
  return w.take();
}

coop::Expected<MutateResponse> decode_mutate_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  MutateResponse m;
  if (Status s = r.u64(m.ack_seq, "ack seq"); !s.ok()) {
    return s;
  }
  if (Status s = r.u32(m.applied, "applied count"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("mutate response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const DynPathBatchRequest& m) {
  return encode_queries(m.collection, m.queries);
}

coop::Expected<DynPathBatchRequest> decode_dyn_path_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  DynPathBatchRequest m;
  if (Status s = decode_queries(payload, limits, MsgType::kDynPathBatch,
                                m.collection, m.queries);
      !s.ok()) {
    return s;
  }
  return m;
}

Status decode_path_batch(MsgType verb, std::span<const std::uint8_t> payload,
                         const DecodeLimits& limits, std::string& collection,
                         serve::PathBatch& batch) {
  batch.clear();
  if (Status s = walk_queries(
          payload, limits, verb, collection, [](std::size_t) {},
          [&](std::int64_t y, std::uint32_t len, const std::uint8_t* nodes) {
            serve::NodeId* path = batch.add(y, len);
            if (len != 0) {
              std::memcpy(path, nodes, len * sizeof(std::uint32_t));
            }
          });
      !s.ok()) {
    return s;
  }
  batch.seal();
  return coop::OkStatus();
}

std::vector<std::uint8_t> encode_path_response(
    std::uint64_t served_version, bool degraded,
    const serve::PathAnswerSet& answers) {
  return encode_path_answers(
      served_version, degraded, answers.size(),
      [&](std::size_t q) { return answers.aug(q); },
      [&](std::size_t q) { return answers.proper(q); });
}

std::vector<std::uint8_t> encode(const DynPathBatchResponse& m) {
  return encode_dyn_answers(
      m.served_version, m.write_seq, m.answers.size(),
      [&](std::size_t q) -> const std::vector<dyn::Key>& {
        return m.answers[q].keys;
      });
}

coop::Expected<DynPathBatchResponse> decode_dyn_path_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  DynPathBatchResponse m;
  if (Status s = r.u64(m.served_version, "served version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.write_seq, "write seq"); !s.ok()) {
    return s;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, "answer count", limits.max_queries); !s.ok()) {
    return s;
  }
  m.answers.reserve(std::min<std::size_t>(n, r.remaining() / kMinAnswerBytes));
  for (std::uint32_t i = 0; i < n; ++i) {
    dyn::PathKeys& a = m.answers.emplace_back();
    std::uint32_t len = 0;
    if (Status s = r.count(len, "answer path length", limits.max_path_len);
        !s.ok()) {
      return s;
    }
    if (Status s = r.array(a.keys, len, "answer key"); !s.ok()) {
      return s;
    }
  }
  if (Status s = r.done("dyn path response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode_dyn_path_response(
    std::uint64_t served_version, std::uint64_t write_seq,
    const dyn::PathKeySet& answers) {
  return encode_dyn_answers(served_version, write_seq, answers.size(),
                            [&](std::size_t q) { return answers.keys(q); });
}

std::vector<std::uint8_t> encode(const CompactRequest& m) {
  Writer w(str_size(m.collection.size()));
  w.str(m.collection);
  return w.take();
}

coop::Expected<CompactRequest> decode_compact_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  CompactRequest m;
  if (Status s = r.str(m.collection, "collection name"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("compact request"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const CompactResponse& m) {
  Writer w(2 * sizeof(std::uint64_t));
  w.u64(m.version);
  w.u64(m.watermark);
  return w.take();
}

coop::Expected<CompactResponse> decode_compact_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  CompactResponse m;
  if (Status s = r.u64(m.version, "published version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.watermark, "compaction watermark"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("compact response"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const FetchSnapshotRequest& m) {
  Writer w(str_size(m.collection.size()) + 2 * sizeof(std::uint64_t) +
           sizeof(std::uint32_t));
  w.str(m.collection);
  w.u64(m.version);
  w.u64(m.offset);
  w.u32(m.max_chunk);
  return w.take();
}

coop::Expected<FetchSnapshotRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  FetchSnapshotRequest m;
  if (Status s = r.str(m.collection, "collection name"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.version, "snapshot version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.offset, "fetch offset"); !s.ok()) {
    return s;
  }
  if (Status s = r.u32(m.max_chunk, "max chunk"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("fetch snapshot request"); !s.ok()) {
    return s;
  }
  return m;
}

std::vector<std::uint8_t> encode(const FetchSnapshotResponse& m) {
  Writer w(3 * sizeof(std::uint64_t) + str_size(m.data.size()));
  w.u64(m.version);
  w.u64(m.total_size);
  w.u64(m.offset);
  w.blob(m.data);
  return w.take();
}

coop::Expected<FetchSnapshotResponse> decode_fetch_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits) {
  Reader r(payload, limits);
  FetchSnapshotResponse m;
  if (Status s = r.u64(m.version, "snapshot version"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.total_size, "snapshot size"); !s.ok()) {
    return s;
  }
  if (Status s = r.u64(m.offset, "chunk offset"); !s.ok()) {
    return s;
  }
  if (Status s = r.blob(m.data, "chunk data"); !s.ok()) {
    return s;
  }
  if (Status s = r.done("fetch snapshot response"); !s.ok()) {
    return s;
  }
  return m;
}

// --------------------------------------------------------------------
// Byte-level routing of PATH_BATCH / DYN_PATH_BATCH.

coop::Expected<ScatteredPaths> scatter_path_request(
    MsgType verb, std::span<const std::uint8_t> payload,
    const PathRouter& router, const DecodeLimits& limits) {
  const PathNames names = path_names(verb);
  Reader r(payload, limits);
  ScatteredPaths out;
  if (Status s = r.str(out.collection, "collection name"); !s.ok()) {
    return s;
  }
  // Every sub-request opens with the client's collection name, verbatim.
  const std::span<const std::uint8_t> name = payload.first(r.pos());
  std::uint32_t n = 0;
  if (Status s = r.count(n, names.batch_size, limits.max_queries); !s.ok()) {
    return s;
  }
  out.slots.reserve(std::min<std::size_t>(n, r.remaining() / kMinQueryBytes));
  std::vector<std::int32_t> sub_of(router.num_shards(), -1);
  std::vector<std::uint32_t> path;
  for (std::uint32_t i = 0; i < n; ++i) {
    // The key and the path length travel to the shard unchanged.
    const std::uint8_t* head = nullptr;
    if (Status s = r.bytes(sizeof(std::int64_t), head, "query key");
        !s.ok()) {
      return s;
    }
    std::uint32_t len = 0;
    if (Status s = r.count(len, "path length", limits.max_path_len);
        !s.ok()) {
      return s;
    }
    const std::uint8_t* nodes = nullptr;
    if (Status s = r.bytes(std::size_t{len} * sizeof(std::uint32_t), nodes,
                           "path node");
        !s.ok()) {
      return s;
    }
    if (!out.refused.ok()) {
      continue;  // only the layout is still checked
    }
    path.resize(len);
    if (len != 0) {
      std::memcpy(path.data(), nodes, path.size() * sizeof(std::uint32_t));
    }
    auto shard = router.route(path);
    if (!shard.ok()) {
      out.refused = shard.status();
      continue;
    }
    std::int32_t& k = sub_of.at(*shard);
    if (k < 0) {
      k = static_cast<std::int32_t>(out.subs.size());
      SubBatch& sub = out.subs.emplace_back();
      sub.shard = *shard;
      sub.payload.reserve(payload.size());
      sub.payload.assign(name.begin(), name.end());
      sub.payload.resize(name.size() + sizeof(std::uint32_t));  // count
    }
    SubBatch& sub = out.subs[static_cast<std::size_t>(k)];
    out.slots.push_back({static_cast<std::uint32_t>(k), sub.count++});
    sub.payload.insert(sub.payload.end(), head, nodes);
    const auto* local = reinterpret_cast<const std::uint8_t*>(path.data());
    sub.payload.insert(sub.payload.end(), local,
                       local + path.size() * sizeof(std::uint32_t));
  }
  if (Status s = r.done(names.request); !s.ok()) {
    return s;
  }
  if (!out.refused.ok()) {
    out.subs.clear();
    out.slots.clear();
  }
  for (SubBatch& sub : out.subs) {
    std::memcpy(sub.payload.data() + name.size(), &sub.count,
                sizeof(sub.count));
  }
  return out;
}

coop::Expected<PathReply> index_path_reply(MsgType verb,
                                           std::vector<std::uint8_t> payload,
                                           const DecodeLimits& limits) {
  const bool dyn = verb == MsgType::kDynPathBatch;
  Reader r(payload, limits);
  PathReply out;
  if (Status s = r.u64(out.served_version, "served version"); !s.ok()) {
    return s;
  }
  if (dyn) {
    if (Status s = r.u64(out.write_seq, "write seq"); !s.ok()) {
      return s;
    }
  } else {
    std::uint8_t degraded = 0;
    if (Status s = r.u8(degraded, "degraded flag"); !s.ok()) {
      return s;
    }
    out.degraded = degraded != 0;
  }
  std::uint32_t n = 0;
  if (Status s = r.count(n, "answer count", limits.max_queries); !s.ok()) {
    return s;
  }
  out.offsets.reserve(
      std::min<std::size_t>(n, r.remaining() / kMinAnswerBytes) + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.offsets.push_back(r.pos());
    std::uint32_t len = 0;
    if (Status s = r.count(len, "answer path length", limits.max_path_len);
        !s.ok()) {
      return s;
    }
    // Either answer kind is 8·len bytes: i64 keys, or u32 aug indices
    // followed by u32 proper indices.
    const std::uint8_t* at = nullptr;
    const std::size_t half = std::size_t{len} * sizeof(std::uint32_t);
    if (dyn) {
      if (Status s = r.bytes(2 * half, at, "answer key"); !s.ok()) {
        return s;
      }
    } else {
      if (Status s = r.bytes(half, at, "aug index"); !s.ok()) {
        return s;
      }
      if (Status s = r.bytes(half, at, "proper index"); !s.ok()) {
        return s;
      }
    }
  }
  out.offsets.push_back(r.pos());
  if (Status s = r.done(path_names(verb).response); !s.ok()) {
    return s;
  }
  out.payload = std::move(payload);
  return out;
}

std::vector<std::uint8_t> splice_path_replies(
    MsgType verb, std::span<const PathReply> replies,
    std::span<const QuerySlot> slots) {
  const bool dyn = verb == MsgType::kDynPathBatch;
  std::uint64_t version = ~std::uint64_t{0};
  std::uint64_t write_seq = ~std::uint64_t{0};
  bool degraded = false;
  std::size_t size = sizeof(std::uint64_t) +
                     (dyn ? sizeof(std::uint64_t) : sizeof(std::uint8_t)) +
                     sizeof(std::uint32_t);
  for (const PathReply& reply : replies) {
    version = std::min(version, reply.served_version);
    write_seq = std::min(write_seq, reply.write_seq);
    degraded = degraded || reply.degraded;
    size += reply.offsets.back() - reply.offsets.front();
  }
  Writer w(size);
  w.u64(version);
  if (dyn) {
    w.u64(write_seq);
  } else {
    w.u8(degraded ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const QuerySlot& slot : slots) {
    const PathReply& reply = replies[slot.sub];
    const std::size_t begin = reply.offsets[slot.index];
    w.raw(reply.payload.data() + begin, reply.offsets[slot.index + 1] - begin);
  }
  return w.take();
}

ErrorResponse to_wire_error(const coop::Status& s) {
  ErrorResponse e;
  e.code = static_cast<std::uint32_t>(s.code());
  e.message = s.message();
  return e;
}

coop::Status from_wire_error(const ErrorResponse& e) {
  switch (static_cast<coop::StatusCode>(e.code)) {
    case coop::StatusCode::kOk:
      // An ERROR frame claiming OK is itself malformed.
      return Status::internal("peer sent an error frame with code OK: " +
                              e.message);
    case coop::StatusCode::kInvalidArgument:
    case coop::StatusCode::kFailedPrecondition:
    case coop::StatusCode::kCorrupted:
    case coop::StatusCode::kDeadlineExceeded:
    case coop::StatusCode::kInternal:
    case coop::StatusCode::kResourceExhausted:
    case coop::StatusCode::kUnavailable:
    case coop::StatusCode::kPermissionDenied:
      return Status::error(static_cast<coop::StatusCode>(e.code), e.message);
  }
  return Status::internal("peer sent unknown status code " +
                          std::to_string(e.code) + ": " + e.message);
}

}  // namespace net
