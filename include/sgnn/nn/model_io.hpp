#pragma once

#include <memory>
#include <string>

#include "sgnn/nn/egnn.hpp"

namespace sgnn {

/// Model checkpointing: persists a ModelConfig plus every parameter tensor
/// to a single CRC-guarded binary file ("SGMD" container, a sibling of the
/// bp graph format), and restores it. Training-state checkpointing of the
/// optimizer is deliberately separate (the sgnn::ckpt snapshots, which embed
/// this payload as their "model" section) so a saved model can be shipped
/// for inference without its Adam moments.
///
/// File layout (the CRC framing shared with SGCK snapshots, see
/// write_framed_file in sgnn/store/serialize.hpp):
///   "SGMD" | u32 version | u64 payload_size | payload | u32 crc | "SGMD"
/// payload: config fields | u64 param_count |
///   per parameter: u64 rank, i64 dims..., f64 data...
/// The write is atomic (tmp sibling + fsync + rename): a crash mid-save
/// leaves the previous file, never a torn one, under `path`.
void save_model(const EGNNModel& model, const std::string& path);

/// Reconstructs the model (config + weights). Throws Error on a missing,
/// truncated, corrupted, or incompatible file. (Modules are pinned in
/// memory, hence the unique_ptr.)
std::unique_ptr<EGNNModel> load_model(const std::string& path);

/// Reads just the config header (cheap; no parameter data is touched).
ModelConfig peek_model_config(const std::string& path);

/// Restores weights into an existing model whose config must match.
void load_parameters_into(EGNNModel& model, const std::string& path);

/// Raw SGMD payload bytes (config + parameters, no container framing).
/// Embedded by sgnn::ckpt training snapshots as their "model" section.
std::string model_payload_bytes(const EGNNModel& model);

/// Restores parameters from payload bytes produced by model_payload_bytes;
/// throws Error on architecture mismatch or truncation.
void load_model_payload(EGNNModel& model, const std::string& payload);

}  // namespace sgnn
