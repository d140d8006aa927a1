// Model checkpointing: serialize a ModelSpec (architecture tag, flat
// parameters, prune masks) to bytes or to a file, and restore it.
//
// The architecture is stored as a tag and rebuilt through the model zoo, so
// a checkpoint is a few bytes of header plus the parameter payload — the
// same wire format the FL layer uses. The header carries an XXH64 checksum
// over the payload (format v3): truncated or bit-flipped files throw
// CheckpointError at load time instead of failing deep inside deserialize.
#pragma once

#include <string>
#include <vector>

#include "common/serialize.h"
#include "nn/model_zoo.h"

namespace fedcleanse::nn {

// Serialize the model (architecture, parameters, prune masks).
std::vector<std::uint8_t> save_model(const ModelSpec& spec);
// Rebuild a model from bytes produced by save_model. Throws CheckpointError
// on anything malformed (bad magic/version, failed checksum, truncation).
ModelSpec load_model(const std::vector<std::uint8_t>& bytes);

// File variants. load_model_file throws CheckpointError on I/O failure or a
// malformed file; save_model_file throws fedcleanse::Error on I/O failure.
void save_model_file(const ModelSpec& spec, const std::string& path);
ModelSpec load_model_file(const std::string& path);

}  // namespace fedcleanse::nn
