#include "sgnn/store/serialize.hpp"

#include <array>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SGNN_HAS_FSYNC 1
#endif

namespace sgnn {

namespace {

constexpr char kTruncated[] = "truncated graph record";

void write_vec3(std::ostream& out, const Vec3& v) {
  write_raw(out, v.x);
  write_raw(out, v.y);
  write_raw(out, v.z);
}

Vec3 read_vec3(std::istream& in) {
  Vec3 v;
  v.x = read_raw<double>(in, kTruncated);
  v.y = read_raw<double>(in, kTruncated);
  v.z = read_raw<double>(in, kTruncated);
  return v;
}

}  // namespace

void write_graph_record(std::ostream& out, const MolecularGraph& graph) {
  graph.validate();
  const auto n = static_cast<std::uint64_t>(graph.num_nodes());
  const auto e = static_cast<std::uint64_t>(graph.num_edges());
  write_raw(out, n);
  write_raw(out, e);
  write_raw(out, graph.energy);
  write_raw(out, graph.dipole);
  write_vec3(out, graph.structure.cell);
  write_raw(out, static_cast<std::uint8_t>(graph.structure.periodic ? 1 : 0));
  for (const auto z : graph.structure.species) {
    write_raw(out, static_cast<std::int32_t>(z));
  }
  for (const auto& p : graph.structure.positions) write_vec3(out, p);
  for (const auto& f : graph.forces) write_vec3(out, f);
  for (std::size_t k = 0; k < graph.edges.src.size(); ++k) {
    write_raw(out, graph.edges.src[k]);
    write_raw(out, graph.edges.dst[k]);
  }
  for (const auto& d : graph.edges.displacement) write_vec3(out, d);
  SGNN_CHECK(out.good(), "write failure while serializing graph");
}

MolecularGraph read_graph_record(std::istream& in) {
  MolecularGraph graph;
  const auto n = read_raw<std::uint64_t>(in, kTruncated);
  const auto e = read_raw<std::uint64_t>(in, kTruncated);
  // Sanity bounds protect against reading garbage as a huge allocation.
  SGNN_CHECK(n < (1ULL << 32) && e < (1ULL << 36),
             "implausible graph record header (n=" << n << ", e=" << e << ")");
  graph.energy = read_raw<double>(in, kTruncated);
  graph.dipole = read_raw<double>(in, kTruncated);
  graph.structure.cell = read_vec3(in);
  graph.structure.periodic = read_raw<std::uint8_t>(in, kTruncated) != 0;
  graph.structure.species.resize(n);
  for (auto& z : graph.structure.species) {
    z = read_raw<std::int32_t>(in, kTruncated);
  }
  graph.structure.positions.resize(n);
  for (auto& p : graph.structure.positions) p = read_vec3(in);
  graph.forces.resize(n);
  for (auto& f : graph.forces) f = read_vec3(in);
  graph.edges.src.resize(e);
  graph.edges.dst.resize(e);
  for (std::size_t k = 0; k < e; ++k) {
    graph.edges.src[k] = read_raw<std::int64_t>(in, kTruncated);
    graph.edges.dst[k] = read_raw<std::int64_t>(in, kTruncated);
  }
  graph.edges.displacement.resize(e);
  for (auto& d : graph.edges.displacement) d = read_vec3(in);
  graph.validate();
  return graph;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

/// Flushes file (or directory) contents to stable storage where the
/// platform supports it; the write path remains correct without it, just
/// not power-failure-proof.
void fsync_path(const std::string& path) {
#ifdef SGNN_HAS_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

void write_framed_file(const std::string& path, std::string_view magic,
                       std::uint32_t version, const std::string& payload,
                       const char* what) {
  SGNN_CHECK(magic.size() == 4, "framed-file magic must be 4 bytes");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SGNN_CHECK(out.is_open(), "cannot open '" << tmp << "' for writing");
    out.write(magic.data(), 4);
    write_raw(out, version);
    write_raw(out, static_cast<std::uint64_t>(payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_raw(out, crc32(payload.data(), payload.size()));
    out.write(magic.data(), 4);
    out.flush();
    SGNN_CHECK(out.good(),
               "write failure while saving " << what << " '" << tmp << "'");
  }
  // Data must be durable BEFORE the rename publishes the file: rename is
  // atomic on POSIX, so after it the name always refers to complete bytes.
  fsync_path(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  SGNN_CHECK(!ec, "cannot publish " << what << " '" << path
                                    << "': " << ec.message());
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) fsync_path(parent.string());
}

std::string read_framed_file(const std::string& path, std::string_view magic,
                             std::uint32_t version, const char* what) {
  SGNN_CHECK(magic.size() == 4, "framed-file magic must be 4 bytes");
  std::ifstream in(path, std::ios::binary);
  SGNN_CHECK(in.is_open(), "cannot open " << what << " '" << path << "'");
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  SGNN_CHECK(file_size >= kFramedFileOverhead,
             "'" << path << "' too small to be a " << what);
  const auto magic_matches = [&] {
    char bytes[4];
    in.read(bytes, 4);
    return in.good() && std::string_view(bytes, 4) == magic;
  };
  SGNN_CHECK(magic_matches(), "'" << path << "' is not a " << what);
  const char* const truncated = "truncated framed file";
  const auto file_version = read_raw<std::uint32_t>(in, truncated);
  SGNN_CHECK(file_version == version, "'" << path << "' has unsupported "
                                          << what << " version "
                                          << file_version);
  const auto payload_size = read_raw<std::uint64_t>(in, truncated);
  // Bound the allocation by what the file can actually hold: a flipped byte
  // in the size field must yield a clean Error, not a multi-GB allocation.
  SGNN_CHECK(payload_size <= file_size - kFramedFileOverhead,
             "'" << path << "' declares " << payload_size
                 << " payload bytes but holds only "
                 << file_size - kFramedFileOverhead);
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  SGNN_CHECK(in.good(), "'" << path << "' truncated payload");
  const auto stored_crc = read_raw<std::uint32_t>(in, truncated);
  SGNN_CHECK(magic_matches(), "'" << path << "' missing trailer");
  SGNN_CHECK(crc32(payload.data(), payload.size()) == stored_crc,
             "'" << path << "' CRC mismatch (corrupt " << what << ")");
  return payload;
}

}  // namespace sgnn
