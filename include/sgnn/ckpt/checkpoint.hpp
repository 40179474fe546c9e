#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::ckpt {

/// Crash-safe training-state checkpointing.
///
/// A checkpoint is a versioned, CRC-verified *snapshot* file ("SGCK"
/// container, a sibling of the SGMD model format) holding named byte
/// sections — model parameters, optimizer moments, sampler RNG state,
/// schedule position. The trainers assemble and consume the sections; this
/// layer owns the container format, the atomic write protocol
/// (tmp file + fsync + rename) and retention/recovery of the last-known-good
/// checkpoint. See docs/fault-tolerance.md for the full protocol.
///
/// File layout (native-endian, like every sgnn container):
///   "SGCK" | u32 version | u64 payload_size | payload | u32 crc | "SGCK"
/// payload:
///   u64 section_count | per section: u64 name_size, name bytes,
///                                    u64 data_size, data bytes

/// Trainer-facing knobs; embedded in TrainOptions / DistTrainOptions.
struct CheckpointOptions {
  /// Write a snapshot every N optimizer steps; 0 disables checkpointing.
  std::int64_t every_steps = 0;
  /// Directory snapshots are written to (created on first save).
  std::string directory;
  /// Verified snapshots retained on disk. At least 2, so a corrupted newest
  /// checkpoint always leaves a previous good one to fall back on.
  int keep_last = 2;
  /// Directory (or single snapshot file) to resume from; empty starts
  /// fresh. Resume restores training bit-identically: train N steps is
  /// indistinguishable from train k, crash, resume, train N-k.
  std::string resume_from;
  /// Fault injection for the crash/restart tests: the trainer throws
  /// SimulatedCrash once this many optimizer steps have completed
  /// (after the step's checkpoint hook). Negative disables.
  std::int64_t crash_after_step = -1;
  /// Fault injection INSIDE the overlap window: during optimizer step N
  /// (1-based), SimulatedCrash is thrown after every gradient bucket has
  /// been posted but before any is drained — no parameter or moment has
  /// been touched, so resume must be bit-identical (the crash-during-
  /// overlap checkpoint test). Every rank throws at the same step, so no
  /// rank is stranded in a collective. Only meaningful with bucketing on
  /// (DistTrainOptions.bucket_bytes > 0). Non-positive disables.
  std::int64_t crash_in_overlap_step = -1;
};

/// Thrown by the trainers' fault-injection hook (CheckpointOptions::
/// crash_after_step). Deliberately NOT an sgnn::Error: a simulated crash is
/// not a data/precondition failure, and corruption tests asserting on Error
/// must not conflate the two.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(std::int64_t step)
      : std::runtime_error("simulated crash after step " +
                           std::to_string(step)),
        step_(step) {}
  std::int64_t step() const { return step_; }

 private:
  std::int64_t step_ = 0;
};

/// Throws SimulatedCrash when `completed_steps` reaches the configured
/// crash point. Called by both trainers right after their checkpoint hook.
inline void maybe_crash(const CheckpointOptions& options,
                        std::int64_t completed_steps) {
  if (options.crash_after_step >= 0 &&
      completed_steps >= options.crash_after_step) {
    throw SimulatedCrash(completed_steps);
  }
}

/// Byte image of a trivially-copyable value (the pod sections: RNG state,
/// counters). memcpy-based, so no pointer of the wrong type is formed.
template <typename T>
std::string pod_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::string bytes(sizeof(T), '\0');
  std::memcpy(bytes.data(), &value, sizeof(T));
  return bytes;
}

template <typename T>
T pod_from_bytes(const std::string& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  SGNN_CHECK(bytes.size() == sizeof(T),
             "snapshot section holds " << bytes.size() << " bytes, expected "
                                       << sizeof(T));
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

/// Accumulates named sections and serializes them into a snapshot payload.
/// Sections are kept in name order, so payload bytes are deterministic
/// regardless of insertion order.
class SnapshotBuilder {
 public:
  void add_bytes(const std::string& name, std::string bytes);
  void add_u64(const std::string& name, std::uint64_t value);
  void add_i64(const std::string& name, std::int64_t value);
  void add_f64(const std::string& name, double value);
  /// Raw real[] image (optimizer moments, flattened parameters).
  void add_reals(const std::string& name, const real* data, std::size_t count);
  void add_u64s(const std::string& name,
                const std::vector<std::uint64_t>& values);

  /// Serialized payload (the body the container CRC covers).
  std::string payload() const;

 private:
  std::map<std::string, std::string> sections_;
};

/// Parses a snapshot payload back into sections. Every accessor throws
/// Error on a missing section or a size mismatch — a corrupt or
/// wrong-kind snapshot can never be half-applied.
class SnapshotView {
 public:
  explicit SnapshotView(const std::string& payload);

  bool has(const std::string& name) const;
  const std::string& bytes(const std::string& name) const;
  std::uint64_t u64(const std::string& name) const;
  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  std::vector<real> reals(const std::string& name) const;
  std::vector<std::uint64_t> u64s(const std::string& name) const;

 private:
  std::map<std::string, std::string> sections_;
};

/// Writes `payload` to `path` as an SGCK container, crash-safely (tmp
/// sibling + fsync + rename; see write_framed_file in
/// sgnn/store/serialize.hpp): a crash at any point leaves either the
/// previous file or the complete new one, never a torn write.
void write_snapshot_file(const std::string& path, const std::string& payload);

/// Reads and verifies an SGCK container; throws Error on missing file,
/// bad magic/version, truncation, or CRC mismatch, with the payload
/// allocation bounded by the file size.
std::string read_snapshot_file(const std::string& path);

/// Owns a checkpoint directory: writes step-stamped snapshots atomically,
/// prunes old ones (keeping `keep_last` verified files), and recovers the
/// newest readable snapshot, skipping corrupt candidates. Obs metrics:
/// ckpt.writes / ckpt.bytes / ckpt.write_seconds on save,
/// ckpt.restores / ckpt.corrupt_skipped on load.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string directory, int keep_last = 2);

  const std::string& directory() const { return directory_; }

  /// Serializes + writes `payload` as the checkpoint for (1-based)
  /// completed step `step`; applies retention. Returns the final path.
  std::string save(std::uint64_t step, const std::string& payload);

  struct Loaded {
    std::uint64_t step = 0;  ///< parsed from the file name
    std::string payload;
    std::string path;
  };

  /// Newest verified snapshot under `location` — a checkpoint directory or
  /// a single snapshot file. Candidates that fail verification (truncated,
  /// bit-flipped, torn) are skipped with a warning, falling back to the
  /// next older checkpoint. nullopt when nothing readable exists.
  static std::optional<Loaded> load_latest(const std::string& location);

 private:
  std::string directory_;
  int keep_last_;
};

}  // namespace sgnn::ckpt
