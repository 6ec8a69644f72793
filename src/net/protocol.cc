#include "net/protocol.h"

#include <bit>
#include <cstring>

#include "common/crc32c.h"
#include "common/table.h"

namespace dpsp {
namespace net {

namespace {

// ---------------------------------------------------------- wire buffers --
// Explicit little-endian byte shifts: the encoding is the wire contract,
// not whatever the host happens to store.

class WireWriter {
 public:
  void U16(uint16_t v) {
    out_.push_back(static_cast<uint8_t>(v));
    out_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      out_.push_back(static_cast<uint8_t>(v >> shift));
    }
  }
  void U64(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      out_.push_back(static_cast<uint8_t>(v >> shift));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    // push_back loop, not insert(): strings on this protocol are short
    // names, and GCC 12 mis-diagnoses the inlined range insert.
    U32(static_cast<uint32_t>(s.size()));
    for (char c : s) out_.push_back(static_cast<uint8_t>(c));
  }
  /// Raw payload bytes with a u64 length prefix (replication sections can
  /// exceed the u32 string limit's comfort zone).
  void Bytes(std::span<const uint8_t> bytes) {
    U64(bytes.size());
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  Status U16(uint16_t* v) {
    DPSP_RETURN_IF_ERROR(Need(2));
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return Status::Ok();
  }
  Status U32(uint32_t* v) {
    DPSP_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 4;
    return Status::Ok();
  }
  Status U64(uint64_t* v) {
    DPSP_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 8;
    return Status::Ok();
  }
  Status I32(int32_t* v) {
    uint32_t raw = 0;
    DPSP_RETURN_IF_ERROR(U32(&raw));
    *v = static_cast<int32_t>(raw);
    return Status::Ok();
  }
  Status F64(double* v) {
    uint64_t raw = 0;
    DPSP_RETURN_IF_ERROR(U64(&raw));
    *v = std::bit_cast<double>(raw);
    return Status::Ok();
  }
  Status Str(std::string* s) {
    uint32_t len = 0;
    DPSP_RETURN_IF_ERROR(U32(&len));
    DPSP_RETURN_IF_ERROR(Need(len));
    s->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }
  /// u64-length-prefixed raw bytes. The length is validated against the
  /// remaining body BEFORE the vector allocates, so a lying prefix is a
  /// typed error rather than a multi-gigabyte resize.
  Status Bytes(std::vector<uint8_t>* bytes) {
    uint64_t len = 0;
    DPSP_RETURN_IF_ERROR(U64(&len));
    if (len > remaining()) {
      return Status::InvalidArgument(
          "byte-payload length exceeds remaining body");
    }
    bytes->assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
                  data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return Status::Ok();
  }
  size_t remaining() const { return data_.size() - pos_; }

  /// Decoders call this last: trailing bytes mean the peer and we disagree
  /// about the encoding, which must not pass silently.
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(
          StrFormat("%zu trailing bytes after message body",
                    data_.size() - pos_));
    }
    return Status::Ok();
  }

 private:
  Status Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      return Status::InvalidArgument("truncated message body");
    }
    return Status::Ok();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace

const char* ErrorKindName(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kMalformed:
      return "malformed";
    case ErrorKind::kNotFound:
      return "not-found";
    case ErrorKind::kBudgetExhausted:
      return "budget-exhausted";
    case ErrorKind::kOverloaded:
      return "overloaded";
    case ErrorKind::kTooLarge:
      return "too-large";
    case ErrorKind::kInternal:
      return "internal";
    case ErrorKind::kUnsupported:
      return "unsupported";
  }
  return "unknown";
}

const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kStandalone:
      return "standalone";
    case NodeRole::kCoordinator:
      return "coordinator";
    case NodeRole::kReplica:
      return "replica";
  }
  return "unknown";
}

// ------------------------------------------------------------- frame I/O --

Status WriteFrame(Socket& socket, MessageType type,
                  std::span<const uint8_t> body) {
  WireWriter header;
  header.Reserve(12 + body.size());
  header.U32(kFrameMagic);
  header.U16(kProtocolVersion);
  header.U16(static_cast<uint16_t>(type));
  header.U32(static_cast<uint32_t>(body.size()));
  // One send: header and body coalesce into as few packets as possible.
  std::vector<uint8_t> frame = header.Take();
  frame.insert(frame.end(), body.begin(), body.end());
  return socket.WriteAll(frame.data(), frame.size());
}

Result<Frame> ReadFrame(Socket& socket, uint32_t max_body_bytes) {
  uint8_t raw[12];
  DPSP_RETURN_IF_ERROR(socket.ReadAll(raw, sizeof(raw)));
  WireReader reader(raw);
  uint32_t magic = 0, body_size = 0;
  uint16_t version = 0, type = 0;
  DPSP_RETURN_IF_ERROR(reader.U32(&magic));
  DPSP_RETURN_IF_ERROR(reader.U16(&version));
  DPSP_RETURN_IF_ERROR(reader.U16(&type));
  DPSP_RETURN_IF_ERROR(reader.U32(&body_size));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not a dpsp peer?)");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("protocol version mismatch: peer speaks %u, this build "
                  "speaks %u",
                  version, kProtocolVersion));
  }
  if (body_size > max_body_bytes) {
    return Status::OutOfRange(
        StrFormat("frame body of %u bytes exceeds the %u-byte limit",
                  body_size, max_body_bytes));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.body.resize(body_size);
  if (body_size > 0) {
    DPSP_RETURN_IF_ERROR(socket.ReadAll(frame.body.data(), body_size));
  }
  return frame;
}

// -------------------------------------------------------------- messages --

std::vector<uint8_t> EncodeReleaseRequest(const ReleaseRequest& request) {
  WireWriter w;
  w.Str(request.workload);
  w.Str(request.mechanism);
  w.Str(request.handle_name);
  return w.Take();
}

Result<ReleaseRequest> DecodeReleaseRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  ReleaseRequest request;
  DPSP_RETURN_IF_ERROR(r.Str(&request.workload));
  DPSP_RETURN_IF_ERROR(r.Str(&request.mechanism));
  DPSP_RETURN_IF_ERROR(r.Str(&request.handle_name));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

std::vector<uint8_t> EncodeReleaseInfo(const ReleaseInfo& info) {
  WireWriter w;
  w.U32(info.handle_id);
  w.F64(info.epsilon);
  w.F64(info.delta);
  w.F64(info.wall_ms);
  return w.Take();
}

Result<ReleaseInfo> DecodeReleaseInfo(std::span<const uint8_t> body) {
  WireReader r(body);
  ReleaseInfo info;
  DPSP_RETURN_IF_ERROR(r.U32(&info.handle_id));
  DPSP_RETURN_IF_ERROR(r.F64(&info.epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.delta));
  DPSP_RETURN_IF_ERROR(r.F64(&info.wall_ms));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return info;
}

std::vector<uint8_t> EncodeQueryRequest(uint32_t handle_id,
                                        std::span<const VertexPair> pairs) {
  WireWriter w;
  w.Reserve(8 + pairs.size() * 8);
  w.U32(handle_id);
  w.U32(static_cast<uint32_t>(pairs.size()));
  for (const VertexPair& p : pairs) {
    w.I32(p.first);
    w.I32(p.second);
  }
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  QueryRequest request;
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&request.handle_id));
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) * 8 != r.remaining()) {
    return Status::InvalidArgument(
        "query pair count disagrees with body size");
  }
  request.pairs.resize(count);
  for (VertexPair& p : request.pairs) {
    int32_t u = 0, v = 0;
    DPSP_RETURN_IF_ERROR(r.I32(&u));
    DPSP_RETURN_IF_ERROR(r.I32(&v));
    p = {u, v};
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

std::vector<uint8_t> EncodeQueryResponse(std::span<const double> distances) {
  WireWriter w;
  w.Reserve(4 + distances.size() * 8);
  w.U32(static_cast<uint32_t>(distances.size()));
  for (double d : distances) w.F64(d);
  return w.Take();
}

Result<std::vector<double>> DecodeQueryResponse(
    std::span<const uint8_t> body) {
  WireReader r(body);
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) * 8 != r.remaining()) {
    return Status::InvalidArgument(
        "distance count disagrees with body size");
  }
  std::vector<double> distances(count);
  for (double& d : distances) DPSP_RETURN_IF_ERROR(r.F64(&d));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return distances;
}

std::vector<uint8_t> EncodeUpdateRequest(
    uint32_t handle_id, std::span<const EdgeWeightDelta> deltas) {
  WireWriter w;
  w.Reserve(8 + deltas.size() * 12);
  w.U32(handle_id);
  w.U32(static_cast<uint32_t>(deltas.size()));
  for (const EdgeWeightDelta& d : deltas) {
    w.I32(d.edge);
    w.F64(d.new_weight);
  }
  return w.Take();
}

Result<UpdateRequest> DecodeUpdateRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  UpdateRequest request;
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&request.handle_id));
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) * 12 != r.remaining()) {
    return Status::InvalidArgument(
        "update delta count disagrees with body size");
  }
  request.deltas.resize(count);
  for (EdgeWeightDelta& d : request.deltas) {
    DPSP_RETURN_IF_ERROR(r.I32(&d.edge));
    DPSP_RETURN_IF_ERROR(r.F64(&d.new_weight));
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

std::vector<uint8_t> EncodeUpdateInfo(const UpdateInfo& info) {
  WireWriter w;
  w.F64(info.charged_epsilon);
  w.F64(info.charged_delta);
  w.F64(info.remaining_epsilon);
  w.F64(info.remaining_delta);
  w.U32(info.dirty_blocks);
  w.F64(info.wall_ms);
  return w.Take();
}

Result<UpdateInfo> DecodeUpdateInfo(std::span<const uint8_t> body) {
  WireReader r(body);
  UpdateInfo info;
  DPSP_RETURN_IF_ERROR(r.F64(&info.charged_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.charged_delta));
  DPSP_RETURN_IF_ERROR(r.F64(&info.remaining_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.remaining_delta));
  DPSP_RETURN_IF_ERROR(r.U32(&info.dirty_blocks));
  DPSP_RETURN_IF_ERROR(r.F64(&info.wall_ms));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return info;
}

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats) {
  WireWriter w;
  w.U64(stats.connections_accepted);
  w.U64(stats.queries_served);
  w.U64(stats.pairs_served);
  w.U64(stats.releases_granted);
  w.U64(stats.budget_rejected);
  w.U64(stats.overload_rejected);
  w.U32(stats.open_handles);
  w.U16(stats.accounting_policy);
  w.F64(stats.spent_epsilon);
  w.F64(stats.spent_delta);
  w.F64(stats.remaining_epsilon);
  w.F64(stats.remaining_delta);
  w.U32(stats.warm_restart ? 1 : 0);
  w.U32(stats.recovered_handles);
  w.U64(stats.recovered_charges);
  w.U16(stats.role);
  w.U64(stats.last_epoch_lsn);
  w.U32(stats.num_replicas);
  w.U64(stats.replica_lag);
  w.U64(stats.replica_queries_served);
  w.U64(stats.replica_pairs_served);
  return w.Take();
}

Result<ServerStats> DecodeServerStats(std::span<const uint8_t> body) {
  WireReader r(body);
  ServerStats stats;
  DPSP_RETURN_IF_ERROR(r.U64(&stats.connections_accepted));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.pairs_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.releases_granted));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.budget_rejected));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.overload_rejected));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.open_handles));
  DPSP_RETURN_IF_ERROR(r.U16(&stats.accounting_policy));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.spent_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.spent_delta));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.remaining_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.remaining_delta));
  uint32_t warm = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&warm));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.recovered_handles));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.recovered_charges));
  stats.warm_restart = warm != 0;
  DPSP_RETURN_IF_ERROR(r.U16(&stats.role));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.num_replicas));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_lag));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_pairs_served));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return stats;
}

std::vector<uint8_t> EncodeError(ErrorKind kind, const Status& status) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(kind));
  w.U16(static_cast<uint16_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Result<WireError> DecodeError(std::span<const uint8_t> body) {
  WireReader r(body);
  uint16_t kind = 0, code = 0;
  WireError error;
  DPSP_RETURN_IF_ERROR(r.U16(&kind));
  DPSP_RETURN_IF_ERROR(r.U16(&code));
  DPSP_RETURN_IF_ERROR(r.Str(&error.message));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  if (kind > static_cast<uint16_t>(ErrorKind::kUnsupported)) {
    kind = static_cast<uint16_t>(ErrorKind::kInternal);
  }
  error.kind = static_cast<ErrorKind>(kind);
  if (code == static_cast<uint16_t>(StatusCode::kOk) ||
      code > static_cast<uint16_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint16_t>(StatusCode::kInternal);
  }
  error.code = static_cast<StatusCode>(code);
  return error;
}

Status WireError::ToStatus() const {
  return Status(code, message);
}

// ---------------------------------------------------- replication frames --

std::vector<uint8_t> EncodeReplicaSubscribe(const ReplicaSubscribe& sub) {
  WireWriter w;
  w.U64(sub.last_epoch_lsn);
  w.Str(sub.replica_name);
  return w.Take();
}

Result<ReplicaSubscribe> DecodeReplicaSubscribe(
    std::span<const uint8_t> body) {
  WireReader r(body);
  ReplicaSubscribe sub;
  DPSP_RETURN_IF_ERROR(r.U64(&sub.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.Str(&sub.replica_name));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return sub;
}

std::vector<uint8_t> EncodeSnapshotChunk(const SnapshotChunk& chunk) {
  WireWriter w;
  size_t payload = 0;
  for (const ReleasedSection& s : chunk.sections) payload += s.bytes.size();
  w.Reserve(64 + payload);
  w.U32(chunk.handle_id);
  w.U64(chunk.epoch_lsn);
  w.Str(chunk.handle_name);
  w.Str(chunk.mechanism);
  w.Str(chunk.workload);
  w.U32(static_cast<uint32_t>(chunk.sections.size()));
  for (const ReleasedSection& s : chunk.sections) {
    w.Str(s.label);
    w.Bytes(s.bytes);
    w.U32(Crc32c(s.bytes.data(), s.bytes.size()));
  }
  return w.Take();
}

Result<SnapshotChunk> DecodeSnapshotChunk(std::span<const uint8_t> body) {
  WireReader r(body);
  SnapshotChunk chunk;
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&chunk.handle_id));
  DPSP_RETURN_IF_ERROR(r.U64(&chunk.epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.handle_name));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.mechanism));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.workload));
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  // Each section costs at least label-len + bytes-len + crc on the wire,
  // so a lying count is refused before any per-section allocation.
  if (static_cast<size_t>(count) * 16 > r.remaining()) {
    return Status::InvalidArgument(
        "snapshot-chunk section count disagrees with body size");
  }
  chunk.sections.resize(count);
  chunk.section_crcs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    DPSP_RETURN_IF_ERROR(r.Str(&chunk.sections[i].label));
    DPSP_RETURN_IF_ERROR(r.Bytes(&chunk.sections[i].bytes));
    DPSP_RETURN_IF_ERROR(r.U32(&chunk.section_crcs[i]));
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return chunk;
}

std::vector<uint8_t> EncodeDeltaFrame(const DeltaFrame& frame) {
  WireWriter w;
  w.Reserve(32 + store::SectionDeltaBytes(frame.patches));
  w.U32(frame.handle_id);
  w.U64(frame.epoch_lsn);
  w.U32(static_cast<uint32_t>(frame.patches.size()));
  for (const store::SectionPatch& patch : frame.patches) {
    w.Str(patch.label);
    w.U64(patch.section_bytes);
    w.U32(patch.post_crc32c);
    w.U32(static_cast<uint32_t>(patch.ranges.size()));
    for (const store::SectionRange& range : patch.ranges) {
      w.U64(range.offset);
      w.Bytes(range.bytes);
    }
  }
  return w.Take();
}

Result<DeltaFrame> DecodeDeltaFrame(std::span<const uint8_t> body) {
  WireReader r(body);
  DeltaFrame frame;
  uint32_t num_patches = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&frame.handle_id));
  DPSP_RETURN_IF_ERROR(r.U64(&frame.epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U32(&num_patches));
  if (static_cast<size_t>(num_patches) * 20 > r.remaining()) {
    return Status::InvalidArgument(
        "delta-frame patch count disagrees with body size");
  }
  frame.patches.resize(num_patches);
  for (store::SectionPatch& patch : frame.patches) {
    uint32_t num_ranges = 0;
    DPSP_RETURN_IF_ERROR(r.Str(&patch.label));
    DPSP_RETURN_IF_ERROR(r.U64(&patch.section_bytes));
    DPSP_RETURN_IF_ERROR(r.U32(&patch.post_crc32c));
    DPSP_RETURN_IF_ERROR(r.U32(&num_ranges));
    if (static_cast<size_t>(num_ranges) * 16 > r.remaining()) {
      return Status::InvalidArgument(
          "delta-frame range count disagrees with body size");
    }
    patch.ranges.resize(num_ranges);
    for (store::SectionRange& range : patch.ranges) {
      DPSP_RETURN_IF_ERROR(r.U64(&range.offset));
      DPSP_RETURN_IF_ERROR(r.Bytes(&range.bytes));
    }
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

std::vector<uint8_t> EncodeReplicaStatsFrame(const ReplicaStatsFrame& stats) {
  WireWriter w;
  w.U16(stats.role);
  w.U64(stats.last_epoch_lsn);
  w.U64(stats.queries_served);
  w.U64(stats.pairs_served);
  return w.Take();
}

Result<ReplicaStatsFrame> DecodeReplicaStatsFrame(
    std::span<const uint8_t> body) {
  WireReader r(body);
  ReplicaStatsFrame stats;
  DPSP_RETURN_IF_ERROR(r.U16(&stats.role));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.pairs_served));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return stats;
}

}  // namespace net
}  // namespace dpsp
