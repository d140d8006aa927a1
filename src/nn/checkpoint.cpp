#include "nn/checkpoint.h"

#include <cstdio>
#include <memory>

namespace fedcleanse::nn {

namespace {
constexpr std::uint32_t kMagic = 0x46434B50;  // "FCKP"
// The header carries a checksum over the payload, so truncated or bit-flipped
// checkpoint files fail loudly at the header instead of surfacing as
// confusing shape errors deep inside deserialization. v2 used FNV-1a; v3
// uses XXH64, so a v2 file is refused by version, not by a checksum mismatch.
constexpr std::uint32_t kVersion = 3;
// magic + version + checksum + payload length prefix.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
}  // namespace

std::vector<std::uint8_t> save_model(const ModelSpec& spec) {
  common::ByteWriter payload;
  payload.write_u8(static_cast<std::uint8_t>(spec.arch));
  payload.write_f32_vector(spec.net.get_flat());
  const auto masks = spec.net.prune_masks();
  payload.write_u32(static_cast<std::uint32_t>(masks.size()));
  for (const auto& m : masks) payload.write_u8_vector(m);

  common::ByteWriter w;
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_u64(common::xxh64(payload.bytes()));
  w.write_u8_vector(payload.take());
  return w.take();
}

ModelSpec load_model(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw CheckpointError("model checkpoint truncated: " + std::to_string(bytes.size()) +
                          " bytes, header needs " + std::to_string(kHeaderBytes));
  }
  common::ByteReader header(bytes);
  if (header.read_u32() != kMagic) throw CheckpointError("not a fedcleanse checkpoint");
  const std::uint32_t version = header.read_u32();
  if (version != kVersion) {
    throw CheckpointError("unsupported checkpoint version " + std::to_string(version) +
                          " (expected " + std::to_string(kVersion) + ")");
  }
  const std::uint64_t stored = header.read_u64();
  std::vector<std::uint8_t> payload;
  try {
    payload = header.read_u8_vector();
  } catch (const SerializationError& e) {
    throw CheckpointError(std::string("model checkpoint truncated: ") + e.what());
  }
  if (!header.exhausted()) throw CheckpointError("model checkpoint has trailing bytes");
  if (common::xxh64(payload) != stored) {
    throw CheckpointError("model checkpoint payload fails its checksum");
  }

  try {
    common::ByteReader r(payload);
    const auto arch = static_cast<Architecture>(r.read_u8());
    // Weights are overwritten immediately; the init seed is irrelevant.
    common::Rng rng(0);
    ModelSpec spec = make_model(arch, rng);
    auto flat = r.read_f32_vector();
    const std::uint32_t n_masks = r.read_u32();
    if (static_cast<int>(n_masks) != spec.net.size()) {
      throw CheckpointError("checkpoint mask count does not match architecture");
    }
    std::vector<std::vector<std::uint8_t>> masks(n_masks);
    for (auto& m : masks) m = r.read_u8_vector();
    // Masks first, then parameters: set_flat re-zeroes pruned units, so the
    // restored model is structurally identical to the saved one.
    spec.net.set_prune_masks(masks);
    spec.net.set_flat(flat);
    return spec;
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    // A checksum-valid payload that still fails to deserialize means the
    // writer and reader disagree (e.g. an unknown architecture tag).
    throw CheckpointError(std::string("model checkpoint payload undecodable: ") + e.what());
  }
}

void save_model_file(const ModelSpec& spec, const std::string& path) {
  const auto bytes = save_model(spec);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "wb"),
                                                       &std::fclose);
  FC_REQUIRE(file != nullptr, "cannot open checkpoint file for writing: " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file.get());
  FC_REQUIRE(written == bytes.size(), "short write to checkpoint file: " + path);
}

ModelSpec load_model_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "rb"),
                                                       &std::fclose);
  if (file == nullptr) {
    throw CheckpointError("cannot open checkpoint file for reading: " + path);
  }
  std::fseek(file.get(), 0, SEEK_END);
  const long size = std::ftell(file.get());
  if (size < 0) throw CheckpointError("cannot stat checkpoint file: " + path);
  std::fseek(file.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), file.get());
  if (read != bytes.size()) throw CheckpointError("short read from checkpoint file: " + path);
  return load_model(bytes);
}

}  // namespace fedcleanse::nn
