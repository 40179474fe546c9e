#include "sgnn/store/bp_file.hpp"

#include <sstream>

#include "sgnn/store/serialize.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

constexpr char kMagic[4] = {'S', 'G', 'B', 'P'};
constexpr std::uint32_t kVersion = 2;
constexpr char kTruncated[] = "truncated bp file";

}  // namespace

BpWriter::BpWriter(const std::string& path)
    : out_(path, std::ios::binary), path_(path) {
  SGNN_CHECK(out_.is_open(), "cannot open '" << path << "' for writing");
  out_.write(kMagic, 4);
  write_raw(out_, kVersion);
  SGNN_CHECK(out_.good(), "write failure on bp header");
}

BpWriter::~BpWriter() {
  // Intentionally no auto-finalize: an unexpected destruction (exception
  // unwind) must leave a detectably-incomplete file, not a silently valid
  // one with fewer records than the producer intended.
}

std::size_t BpWriter::append(const MolecularGraph& graph) {
  SGNN_CHECK(!finalized_, "append after finalize");
  std::ostringstream record;
  write_graph_record(record, graph);
  const std::string payload = record.str();
  const auto offset = static_cast<std::uint64_t>(out_.tellp());
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  SGNN_CHECK(out_.good(), "write failure on bp record");
  offsets_.emplace_back(offset, payload.size());
  return offsets_.size() - 1;
}

std::uint64_t BpWriter::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [offset, size] : offsets_) total += size;
  return total;
}

void BpWriter::finalize() {
  SGNN_CHECK(!finalized_, "finalize called twice");
  finalized_ = true;

  std::ostringstream footer;
  write_raw(footer, static_cast<std::uint64_t>(offsets_.size()));
  for (const auto& [offset, size] : offsets_) {
    write_raw(footer, offset);
    write_raw(footer, size);
  }
  const std::string index_bytes = footer.str();
  const std::uint32_t crc = crc32(index_bytes.data(), index_bytes.size());

  out_.write(index_bytes.data(),
             static_cast<std::streamsize>(index_bytes.size()));
  write_raw(out_, crc);
  write_raw(out_, static_cast<std::uint64_t>(index_bytes.size()));
  out_.write(kMagic, 4);
  out_.close();
  SGNN_CHECK(out_.good(), "write failure on bp footer");
}

BpReader::BpReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  SGNN_CHECK(in_.is_open(), "cannot open '" << path << "' for reading");

  char magic[4];
  in_.read(magic, 4);
  SGNN_CHECK(in_.good() && std::equal(magic, magic + 4, kMagic),
             "'" << path << "' is not a bp file (bad magic)");
  const auto version = read_raw<std::uint32_t>(in_, kTruncated);
  SGNN_CHECK(version == kVersion,
             "'" << path << "' has unsupported bp version " << version);

  // Trailer: ... crc(u32) footer_size(u64) magic(4).
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  constexpr std::uint64_t kTrailer = 4 + 8 + 4;
  SGNN_CHECK(file_size >= 8 + kTrailer,
             "'" << path << "' too small to hold a bp footer");
  in_.seekg(static_cast<std::streamoff>(file_size - 12));
  const auto footer_size = read_raw<std::uint64_t>(in_, kTruncated);
  char tail_magic[4];
  in_.read(tail_magic, 4);
  SGNN_CHECK(in_.good() && std::equal(tail_magic, tail_magic + 4, kMagic),
             "'" << path
                 << "' missing bp footer (file truncated or not finalized)");
  SGNN_CHECK(footer_size + kTrailer + 8 <= file_size,
             "'" << path << "' footer size " << footer_size
                 << " inconsistent with file size " << file_size);

  // Read and verify the index.
  in_.seekg(static_cast<std::streamoff>(file_size - kTrailer - footer_size));
  std::string index_bytes(footer_size, '\0');
  in_.read(index_bytes.data(), static_cast<std::streamsize>(footer_size));
  const auto stored_crc = read_raw<std::uint32_t>(in_, kTruncated);
  SGNN_CHECK(crc32(index_bytes.data(), index_bytes.size()) == stored_crc,
             "'" << path << "' footer CRC mismatch (corrupt index)");

  std::istringstream index_stream(index_bytes);
  const auto count = read_raw<std::uint64_t>(index_stream, kTruncated);
  SGNN_CHECK(footer_size == 8 + count * 16,
             "'" << path << "' footer length disagrees with record count");
  index_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto offset = read_raw<std::uint64_t>(index_stream, kTruncated);
    const auto size = read_raw<std::uint64_t>(index_stream, kTruncated);
    SGNN_CHECK(offset >= 8 && offset + size <= file_size,
               "'" << path << "' record " << i << " out of bounds");
    index_.emplace_back(offset, size);
  }
}

MolecularGraph BpReader::read(std::size_t record) const {
  SGNN_CHECK(record < index_.size(), "record " << record << " out of range ("
                                               << index_.size()
                                               << " records)");
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(index_[record].first));
  return read_graph_record(in_);
}

std::uint64_t BpReader::record_bytes(std::size_t record) const {
  SGNN_CHECK(record < index_.size(), "record " << record << " out of range");
  return index_[record].second;
}

}  // namespace sgnn
