#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "sgnn/graph/graph.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

/// Fixed-width native-endian value IO shared by every sgnn binary format.
/// memcpy through a char buffer instead of reinterpret_cast on &value: the
/// byte layout (and thus the on-disk format) is identical, but no pointer of
/// the wrong type is ever formed.
template <typename T>
void write_raw(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.write(bytes, sizeof(T));
}

/// Reads one value; throws Error(`truncated_message`) at end of input.
template <typename T>
T read_raw(std::istream& in, const char* truncated_message) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  in.read(bytes, sizeof(T));
  SGNN_CHECK(in.good(), truncated_message);
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// Binary graph record layout (little-endian, fixed width):
///   u64 node_count, u64 edge_count, f64 energy, f64 dipole,
///   3 x f64 cell, u8 periodic,
///   node_count x i32 species,
///   node_count x 3 x f64 positions,
///   node_count x 3 x f64 forces,
///   edge_count x 2 x i64 endpoints,
///   edge_count x 3 x f64 displacements.
/// MolecularGraph::serialized_bytes() mirrors this layout byte for byte.
void write_graph_record(std::ostream& out, const MolecularGraph& graph);

/// Reads one record; throws Error on truncated or malformed input.
MolecularGraph read_graph_record(std::istream& in);

/// CRC-32 (IEEE 802.3 polynomial) used by the sgnn containers for integrity.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// CRC-framed single-payload file, the layout of both the SGMD model and
/// the SGCK snapshot formats (`magic` is four bytes):
///   magic | u32 version | u64 payload_size | payload | u32 crc | magic
/// Framing bytes around the payload (16 of header, 8 of trailer).
constexpr std::uint64_t kFramedFileOverhead = 4 + 4 + 8 + 4 + 4;

/// Writes a framed file crash-safely: the bytes go to the temporary sibling
/// `path + ".tmp"`, which is fsync'd and only then renamed over `path` (the
/// directory entry is fsync'd too). A crash at any point leaves either the
/// previous file or the complete new one, never a torn write under the
/// final name. `what` names the file kind in error messages.
void write_framed_file(const std::string& path, std::string_view magic,
                       std::uint32_t version, const std::string& payload,
                       const char* what);

/// Reads and verifies a framed file; throws Error on a missing file, bad
/// magic or version, truncation, or CRC mismatch. The payload allocation is
/// bounded by the actual file size, so a corrupt header cannot trigger a
/// multi-gigabyte allocation.
std::string read_framed_file(const std::string& path, std::string_view magic,
                             std::uint32_t version, const char* what);

}  // namespace sgnn
