#include "comm/message.h"

#include <atomic>
#include <cmath>

#include "tensor/quant.h"

namespace fedcleanse::comm {

namespace {
// The allocator is process-global: exchanges run sequentially on the round
// protocol's driving thread, so ids are dense and ordered within one run.
std::atomic<std::uint32_t> g_next_correlation{1};
// Current-exchange id. Only the exchange driver writes it; message factories
// on the same thread read it, and client replies echo the request's id
// instead of reading this, so cross-thread visibility is not load-bearing.
std::atomic<std::uint32_t> g_current_correlation{0};
}  // namespace

std::uint32_t next_correlation_id() {
  return g_next_correlation.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t current_correlation_id() {
  return g_current_correlation.load(std::memory_order_relaxed);
}

ScopedCorrelation::ScopedCorrelation(std::uint32_t id)
    : previous_(g_current_correlation.exchange(id, std::memory_order_relaxed)) {}

ScopedCorrelation::~ScopedCorrelation() {
  g_current_correlation.store(previous_, std::memory_order_relaxed);
}

const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kModelBroadcast: return "ModelBroadcast";
    case MessageType::kModelUpdate: return "ModelUpdate";
    case MessageType::kRankRequest: return "RankRequest";
    case MessageType::kRankReport: return "RankReport";
    case MessageType::kVoteRequest: return "VoteRequest";
    case MessageType::kVoteReport: return "VoteReport";
    case MessageType::kMaskBroadcast: return "MaskBroadcast";
    case MessageType::kAccuracyRequest: return "AccuracyRequest";
    case MessageType::kAccuracyReport: return "AccuracyReport";
    case MessageType::kLrScale: return "LrScale";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kRegister: return "Register";
    case MessageType::kRegisterAck: return "RegisterAck";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kModelUpdateQuantized: return "ModelUpdateQuantized";
    case MessageType::kRoundSync: return "RoundSync";
    case MessageType::kRoundSyncAck: return "RoundSyncAck";
  }
  return "?";
}

std::optional<MessageType> parse_message_type(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(MessageType::kModelBroadcast) ||
      raw > static_cast<std::uint8_t>(MessageType::kRoundSyncAck)) {
    return std::nullopt;
  }
  return static_cast<MessageType>(raw);
}

const char* update_codec_name(UpdateCodec codec) {
  switch (codec) {
    case UpdateCodec::kF32: return "f32";
    case UpdateCodec::kInt8: return "int8";
  }
  return "unknown";
}

std::optional<UpdateCodec> parse_update_codec(const std::string& name) {
  if (name == "f32") return UpdateCodec::kF32;
  if (name == "int8") return UpdateCodec::kInt8;
  return std::nullopt;
}

namespace {

// Run `fn` against a ByteReader over `payload`, converting any serialization
// failure into a DecodeError tagged with the codec name, and rejecting
// payloads with trailing bytes (an oversized payload is as malformed as a
// truncated one — it means the sender and receiver disagree on the format).
template <typename Fn>
auto decode_checked(const char* codec, const std::vector<std::uint8_t>& payload, Fn fn) {
  common::ByteReader r(payload);
  try {
    auto value = fn(r);
    if (!r.exhausted()) {
      throw DecodeError(std::string(codec) + ": " + std::to_string(r.remaining()) +
                        " trailing bytes");
    }
    return value;
  } catch (const DecodeError&) {
    throw;
  } catch (const SerializationError& e) {
    throw DecodeError(std::string(codec) + ": " + e.what());
  }
}

}  // namespace

std::uint64_t payload_checksum(const std::vector<std::uint8_t>& payload) {
  return common::xxh64(payload);
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  common::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(m.type));
  w.write_u32(m.round);
  w.write_i32(m.sender);
  w.write_u32(m.correlation);
  // Always write the true checksum: encoded bytes are by construction
  // self-consistent, whatever m.checksum held.
  w.write_u64(payload_checksum(m.payload));
  w.write_u8_vector(m.payload);
  return w.take();
}

Message decode_message(const std::vector<std::uint8_t>& bytes) {
  return decode_checked("message", bytes, [](common::ByteReader& r) {
    Message m;
    const std::uint8_t raw_type = r.read_u8();
    auto type = parse_message_type(raw_type);
    if (!type) {
      throw DecodeError("message: unknown type byte " + std::to_string(raw_type));
    }
    m.type = *type;
    m.round = r.read_u32();
    m.sender = r.read_i32();
    m.correlation = r.read_u32();
    m.checksum = r.read_u64();
    m.payload = r.read_u8_vector();
    if (!m.checksum_ok()) {
      throw DecodeError("message: payload fails checksum");
    }
    return m;
  });
}

void write_message_verbatim(common::ByteWriter& w, const Message& m) {
  w.write_u8(static_cast<std::uint8_t>(m.type));
  w.write_u32(m.round);
  w.write_i32(m.sender);
  w.write_u32(m.correlation);
  w.write_u64(m.checksum);  // as stored, not recomputed
  w.write_u8_vector(m.payload);
}

Message read_message_verbatim(common::ByteReader& r) {
  Message m;
  const std::uint8_t raw_type = r.read_u8();
  // FaultModel::corrupt only produces valid type bytes, so every message a
  // snapshot can contain parses; an invalid byte means the snapshot itself
  // is bad (and should have failed its checksum before reaching us).
  auto type = parse_message_type(raw_type);
  if (!type) {
    throw SerializationError("snapshot message has unknown type byte " +
                             std::to_string(raw_type));
  }
  m.type = *type;
  m.round = r.read_u32();
  m.sender = r.read_i32();
  m.correlation = r.read_u32();
  m.checksum = r.read_u64();
  m.payload = r.read_u8_vector();
  return m;
}

std::vector<std::uint8_t> encode_flat_params(const std::vector<float>& params) {
  common::ByteWriter w;
  w.write_f32_vector(params);
  return w.take();
}

std::vector<float> decode_flat_params(const std::vector<std::uint8_t>& payload) {
  return decode_checked("flat_params", payload,
                        [](common::ByteReader& r) { return r.read_f32_vector(); });
}

std::vector<std::uint8_t> encode_flat_params_q8(const std::vector<float>& params) {
  const float scale = tensor::int8_scale(tensor::max_abs(params.data(), params.size()));
  std::vector<std::uint8_t> q(params.size());
  tensor::quantize_s8(params.data(), params.size(), scale,
                      reinterpret_cast<std::int8_t*>(q.data()));
  common::ByteWriter w;
  w.write_f32(scale);
  w.write_u8_vector(q);
  return w.take();
}

std::vector<float> decode_flat_params_q8(const std::vector<std::uint8_t>& payload) {
  return decode_checked("flat_params_q8", payload, [](common::ByteReader& r) {
    const float scale = r.read_f32();
    if (!std::isfinite(scale) || scale <= 0.0f) {
      throw DecodeError("flat_params_q8: bad scale " + std::to_string(scale));
    }
    const auto q = r.read_u8_vector();
    std::vector<float> params(q.size());
    tensor::dequantize_s8(reinterpret_cast<const std::int8_t*>(q.data()), q.size(), scale,
                          params.data());
    return params;
  });
}

std::vector<std::uint8_t> encode_ranks(const std::vector<std::uint32_t>& ranks) {
  common::ByteWriter w;
  w.write_u32_vector(ranks);
  return w.take();
}

std::vector<std::uint32_t> decode_ranks(const std::vector<std::uint8_t>& payload) {
  return decode_checked("ranks", payload,
                        [](common::ByteReader& r) { return r.read_u32_vector(); });
}

std::vector<std::uint8_t> encode_votes(const std::vector<std::uint8_t>& votes) {
  common::ByteWriter w;
  w.write_u8_vector(votes);
  return w.take();
}

std::vector<std::uint8_t> decode_votes(const std::vector<std::uint8_t>& payload) {
  return decode_checked("votes", payload,
                        [](common::ByteReader& r) { return r.read_u8_vector(); });
}

std::vector<std::uint8_t> encode_vote_request(double prune_rate) {
  common::ByteWriter w;
  w.write_f64(prune_rate);
  return w.take();
}

double decode_vote_request(const std::vector<std::uint8_t>& payload) {
  return decode_checked("vote_request", payload,
                        [](common::ByteReader& r) { return r.read_f64(); });
}

std::vector<std::uint8_t> encode_masks(const std::vector<std::vector<std::uint8_t>>& masks) {
  common::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(masks.size()));
  for (const auto& m : masks) w.write_u8_vector(m);
  return w.take();
}

std::vector<std::vector<std::uint8_t>> decode_masks(const std::vector<std::uint8_t>& payload) {
  return decode_checked("masks", payload, [](common::ByteReader& r) {
    const std::uint32_t n = r.read_u32();
    // Each mask costs at least its 4-byte length prefix; a lying count must
    // not reach the vector allocation below.
    if (static_cast<std::size_t>(n) * 4 > r.remaining()) {
      throw DecodeError("masks: count " + std::to_string(n) + " exceeds payload");
    }
    std::vector<std::vector<std::uint8_t>> masks(n);
    for (auto& m : masks) m = r.read_u8_vector();
    return masks;
  });
}

std::vector<std::uint8_t> encode_accuracy(double accuracy) {
  common::ByteWriter w;
  w.write_f64(accuracy);
  return w.take();
}

double decode_accuracy(const std::vector<std::uint8_t>& payload) {
  return decode_checked("accuracy", payload,
                        [](common::ByteReader& r) { return r.read_f64(); });
}

std::vector<std::uint8_t> encode_lr_scale(double factor) {
  common::ByteWriter w;
  w.write_f64(factor);
  return w.take();
}

double decode_lr_scale(const std::vector<std::uint8_t>& payload) {
  return decode_checked("lr_scale", payload,
                        [](common::ByteReader& r) { return r.read_f64(); });
}

std::vector<std::uint8_t> encode_register(const RegisterInfo& info) {
  common::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(info.role));
  w.write_i32(info.node_id);
  w.write_u32(info.port);
  w.write_u32(info.generation);
  w.write_u32(info.epoch);
  return w.take();
}

RegisterInfo decode_register(const std::vector<std::uint8_t>& payload) {
  return decode_checked("register", payload, [](common::ByteReader& r) {
    RegisterInfo info;
    const std::uint8_t raw_role = r.read_u8();
    if (raw_role > static_cast<std::uint8_t>(NodeRole::kClient)) {
      throw DecodeError("register: unknown role " + std::to_string(raw_role));
    }
    info.role = static_cast<NodeRole>(raw_role);
    info.node_id = r.read_i32();
    const std::uint32_t port = r.read_u32();
    if (port > 65535) throw DecodeError("register: port " + std::to_string(port));
    info.port = static_cast<std::uint16_t>(port);
    info.generation = r.read_u32();
    info.epoch = r.read_u32();
    return info;
  });
}

std::vector<std::uint8_t> encode_register_ack(const RegisterAck& ack) {
  common::ByteWriter w;
  w.write_bool(ack.accepted);
  w.write_bool(ack.server_known);
  w.write_string(ack.server_host);
  w.write_u32(ack.server_port);
  w.write_i32(ack.n_clients_registered);
  w.write_u32(ack.epoch);
  return w.take();
}

RegisterAck decode_register_ack(const std::vector<std::uint8_t>& payload) {
  return decode_checked("register_ack", payload, [](common::ByteReader& r) {
    RegisterAck ack;
    ack.accepted = r.read_bool();
    ack.server_known = r.read_bool();
    ack.server_host = r.read_string();
    const std::uint32_t port = r.read_u32();
    if (port > 65535) throw DecodeError("register_ack: port " + std::to_string(port));
    ack.server_port = static_cast<std::uint16_t>(port);
    ack.n_clients_registered = r.read_i32();
    ack.epoch = r.read_u32();
    return ack;
  });
}

std::vector<std::uint8_t> encode_heartbeat_status(const HeartbeatStatus& s) {
  common::ByteWriter w;
  w.write_u32(s.round);
  w.write_u64(s.wire_bytes);
  w.write_u64(s.peak_rss);
  return w.take();
}

HeartbeatStatus decode_heartbeat_status(const std::vector<std::uint8_t>& payload) {
  return decode_checked("heartbeat_status", payload, [](common::ByteReader& r) {
    HeartbeatStatus s;
    s.round = r.read_u32();
    s.wire_bytes = r.read_u64();
    s.peak_rss = r.read_u64();
    return s;
  });
}

std::vector<std::uint8_t> encode_round_sync(const RoundSync& sync) {
  common::ByteWriter w;
  w.write_u32(sync.epoch);
  w.write_i32(sync.next_round);
  return w.take();
}

RoundSync decode_round_sync(const std::vector<std::uint8_t>& payload) {
  return decode_checked("round_sync", payload, [](common::ByteReader& r) {
    RoundSync sync;
    sync.epoch = r.read_u32();
    sync.next_round = r.read_i32();
    if (sync.next_round < 0) {
      throw DecodeError("round_sync: negative round " + std::to_string(sync.next_round));
    }
    return sync;
  });
}

}  // namespace fedcleanse::comm
