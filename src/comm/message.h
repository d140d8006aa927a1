// Typed messages exchanged between the FL server and clients.
//
// Everything that crosses the server↔client boundary is serialized to bytes
// (common::ByteWriter) so the simulator measures real payload sizes and the
// server can never trust client memory directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"

namespace fedcleanse::comm {

enum class MessageType : std::uint8_t {
  // Training protocol.
  kModelBroadcast = 1,  // server → client: flat global parameters
  kModelUpdate = 2,     // client → server: flat parameter delta
  // Federated pruning protocol.
  kRankRequest = 3,     // server → client: request activation ranking
  kRankReport = 4,      // client → server: neuron ranks (RAP)
  kVoteRequest = 5,     // server → client: request prune votes at rate p
  kVoteReport = 6,      // client → server: 0/1 prune votes (MVP)
  // Fine-tuning / evaluation protocol.
  kMaskBroadcast = 7,   // server → client: prune masks per layer
  kAccuracyRequest = 8, // server → client: request local accuracy
  kAccuracyReport = 9,  // client → server: local accuracy value
  // Control-plane protocol (multi-process deployment, DESIGN.md §15).
  kLrScale = 10,        // server → client: multiply local learning rate
  kShutdown = 11,       // server → client / scheduler → node: run is over
  kRegister = 12,       // node → scheduler, client → server: join the cohort
  kRegisterAck = 13,    // reply to kRegister: accepted + topology info
  kHeartbeat = 14,      // node → peer: liveness beacon
  kHeartbeatAck = 15,   // peer → node: beacon echo
  // Quantized-wire training protocol (DESIGN.md §16).
  kModelUpdateQuantized = 16,  // client → server: int8 parameter delta
  // Failover protocol (DESIGN.md §18).
  kRoundSync = 17,     // server → client: roll back to the committed round
  kRoundSyncAck = 18,  // client → server: rolled back, ready to replay
};

const char* message_type_name(MessageType t);
// Validated conversion from a (possibly corrupted) wire byte.
std::optional<MessageType> parse_message_type(std::uint8_t raw);

// Malformed message or payload: truncated, oversized, lying length prefix,
// unknown type byte. Subtype of SerializationError so callers that only care
// about "bad bytes" can catch the base type.
class DecodeError : public SerializationError {
 public:
  explicit DecodeError(const std::string& what) : SerializationError(what) {}
};

// Snapshot-epoch mismatch: a message from a different resume generation of
// the run (a pre-crash server's stale kRoundSync, or a client that resumed
// past the server's restored state). Subtype of DecodeError so the generic
// collect loops treat it as a malformed-but-logged reply rather than a fatal
// transport fault.
class EpochError : public DecodeError {
 public:
  explicit EpochError(const std::string& what) : DecodeError(what) {}
};

// XXH64 over the payload bytes — the wire integrity check. Flipped,
// truncated, or appended payload bytes (fault injection, or a torn read)
// fail verification at the receiver instead of decoding into silent garbage.
std::uint64_t payload_checksum(const std::vector<std::uint8_t>& payload);

// Wire header: type (u8) + round (u32) + sender (i32) + correlation (u32) +
// checksum (u64) + payload length (u32). Single source of truth shared by
// Message::wire_size() and the encode_message()/decode_message() pair, so a
// header change cannot silently skew Network::total_bytes() accounting.
inline constexpr std::size_t kMessageHeaderBytes = 1 + 4 + 4 + 4 + 8 + 4;

// Process-wide correlation-id allocator for distributed tracing (DESIGN.md
// §17). The round-protocol driver (fl::exchange_streaming) draws one id per
// exchange and stamps it into every request of that exchange; clients echo the
// id back in their replies, so the merged multi-process trace can pair a
// server dispatch span with the client work it caused. Ids are observability
// metadata only — no protocol decision reads them — and 0 means "unstamped"
// (control-plane beacons, pre-correlation traffic).
std::uint32_t next_correlation_id();
// The id the current exchange stamped (0 outside any exchange). Set/restored
// RAII-style by ScopedCorrelation; read by Server::send_all.
std::uint32_t current_correlation_id();

class ScopedCorrelation {
 public:
  explicit ScopedCorrelation(std::uint32_t id);
  ~ScopedCorrelation();
  ScopedCorrelation(const ScopedCorrelation&) = delete;
  ScopedCorrelation& operator=(const ScopedCorrelation&) = delete;

 private:
  std::uint32_t previous_;
};

struct Message {
  MessageType type{};
  std::uint32_t round = 0;
  std::int32_t sender = -1;  // client id, or -1 for the server
  std::uint32_t correlation = 0;  // exchange id (0 = unstamped control traffic)
  std::uint64_t checksum = 0;  // payload_checksum(payload), set by stamp()
  std::vector<std::uint8_t> payload;

  // Compute the checksum — call after filling the payload, before sending.
  // Anything that mutates the payload afterwards (FaultModel::corrupt) is
  // detectable via checksum_ok().
  Message& stamp() {
    checksum = payload_checksum(payload);
    return *this;
  }
  bool checksum_ok() const { return checksum == payload_checksum(payload); }

  std::size_t wire_size() const { return kMessageHeaderBytes + payload.size(); }
};

// Full message ↔ bytes. encode_message's output is exactly wire_size() bytes;
// decode_message throws DecodeError on truncation, trailing bytes, or an
// unknown type byte.
std::vector<std::uint8_t> encode_message(const Message& m);
Message decode_message(const std::vector<std::uint8_t>& bytes);

// Checkpoint codec: serialize a message *verbatim*, keeping the stored
// checksum even when it no longer matches the payload. encode_message always
// re-stamps the true checksum, which would silently heal a fault-corrupted
// in-flight message across a crash-resume; this pair keeps the wire state
// bit-exact so the resumed run rejects exactly what the uninterrupted run
// would have. Only run snapshots use it — never the wire.
void write_message_verbatim(common::ByteWriter& w, const Message& m);
Message read_message_verbatim(common::ByteReader& r);

// --- payload codecs ---------------------------------------------------------
// Every decoder validates the payload end to end and throws DecodeError on
// anything malformed (truncated, oversized, or with a lying length prefix);
// a Byzantine client can never crash the server with bad bytes.

std::vector<std::uint8_t> encode_flat_params(const std::vector<float>& params);
std::vector<float> decode_flat_params(const std::vector<std::uint8_t>& payload);

// Codec for the client→server update payload. kF32 sends raw floats
// (kModelUpdate, byte-identical to the original wire); kInt8 sends a
// per-tensor scale plus int8 quantized values (kModelUpdateQuantized) at
// ~3.9× fewer bytes, dequantized at the server before aggregation.
enum class UpdateCodec : std::uint8_t { kF32 = 0, kInt8 = 1 };

const char* update_codec_name(UpdateCodec codec);
std::optional<UpdateCodec> parse_update_codec(const std::string& name);

// kModelUpdateQuantized payload: [f32 scale][u8-vector of int8 values].
// decode throws DecodeError on truncation, trailing bytes, or a non-finite /
// non-positive scale (a corrupted scale would silently rescale the whole
// update).
std::vector<std::uint8_t> encode_flat_params_q8(const std::vector<float>& params);
std::vector<float> decode_flat_params_q8(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_ranks(const std::vector<std::uint32_t>& ranks);
std::vector<std::uint32_t> decode_ranks(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_votes(const std::vector<std::uint8_t>& votes);
std::vector<std::uint8_t> decode_votes(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_vote_request(double prune_rate);
double decode_vote_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_masks(const std::vector<std::vector<std::uint8_t>>& masks);
std::vector<std::vector<std::uint8_t>> decode_masks(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_accuracy(double accuracy);
double decode_accuracy(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_lr_scale(double factor);
double decode_lr_scale(const std::vector<std::uint8_t>& payload);

// --- deployment control-plane payloads --------------------------------------

enum class NodeRole : std::uint8_t { kServer = 0, kClient = 1 };

// kRegister payload: who is joining and where it can be reached.
struct RegisterInfo {
  NodeRole role = NodeRole::kClient;
  std::int32_t node_id = -1;      // client id, or -1 for the server
  std::uint16_t port = 0;         // listening port (server only; 0 for clients)
  std::uint32_t generation = 0;   // bumped on each reconnect-and-reregister
  std::uint32_t epoch = 0;        // snapshot epoch (0 = fresh run; DESIGN.md §18)
};

std::vector<std::uint8_t> encode_register(const RegisterInfo& info);
RegisterInfo decode_register(const std::vector<std::uint8_t>& payload);

// kRegisterAck payload: registration verdict plus server discovery info (the
// scheduler tells clients where the server listens once it has registered).
struct RegisterAck {
  bool accepted = false;
  bool server_known = false;
  std::string server_host;
  std::uint16_t server_port = 0;
  std::int32_t n_clients_registered = 0;
  std::uint32_t epoch = 0;  // the acceptor's snapshot epoch
};

std::vector<std::uint8_t> encode_register_ack(const RegisterAck& ack);
RegisterAck decode_register_ack(const std::vector<std::uint8_t>& payload);

// Optional kHeartbeat payload (DESIGN.md §17): a compact progress/metric
// snapshot the fleet view aggregates. An empty heartbeat payload remains
// valid (PR 7's bare beacon); a non-empty one must decode exactly.
struct HeartbeatStatus {
  std::uint32_t round = 0;       // last FL round this node touched
  std::uint64_t wire_bytes = 0;  // transport bytes sent by this node so far
  std::uint64_t peak_rss = 0;    // VmHWM of the beaconing process, bytes
};

std::vector<std::uint8_t> encode_heartbeat_status(const HeartbeatStatus& s);
HeartbeatStatus decode_heartbeat_status(const std::vector<std::uint8_t>& payload);

// kRoundSync / kRoundSyncAck payload (DESIGN.md §18): the resumed server's
// snapshot epoch and the round both sides must be positioned at before the
// run replays. The client echoes the payload back verbatim as its ack, so
// the server can verify the client landed on the intended (epoch, round).
struct RoundSync {
  std::uint32_t epoch = 0;
  std::int32_t next_round = 0;  // rounds committed; the next round to run
};

std::vector<std::uint8_t> encode_round_sync(const RoundSync& sync);
RoundSync decode_round_sync(const std::vector<std::uint8_t>& payload);

}  // namespace fedcleanse::comm
