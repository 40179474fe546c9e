#include "sgnn/ckpt/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string_view>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/store/serialize.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn::ckpt {

namespace {

constexpr std::string_view kMagic = "SGCK";
constexpr std::uint32_t kVersion = 1;
constexpr char kWhat[] = "snapshot";

constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".sgck";

/// Step-stamped, lexicographically sortable file name.
std::string snapshot_file_name(std::uint64_t step) {
  std::ostringstream os;
  os << kFilePrefix;
  os.width(20);
  os.fill('0');
  os << step << kFileSuffix;
  return os.str();
}

/// Parses the step out of a snapshot file name; nullopt for foreign files.
std::optional<std::uint64_t> parse_snapshot_step(const std::string& name) {
  const std::string prefix(kFilePrefix);
  const std::string suffix(kFileSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t step = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    step = step * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return step;
}

/// Snapshot files in `directory`, sorted by step ascending.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_snapshots(
    const std::filesystem::path& directory) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  if (!std::filesystem::is_directory(directory)) return found;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    if (const auto step = parse_snapshot_step(entry.path().filename().string())) {
      found.emplace_back(*step, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

// -- SnapshotBuilder --------------------------------------------------------

void SnapshotBuilder::add_bytes(const std::string& name, std::string bytes) {
  SGNN_CHECK(!name.empty(), "snapshot section needs a name");
  SGNN_CHECK(sections_.find(name) == sections_.end(),
             "duplicate snapshot section '" << name << "'");
  sections_[name] = std::move(bytes);
}

void SnapshotBuilder::add_u64(const std::string& name, std::uint64_t value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_i64(const std::string& name, std::int64_t value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_f64(const std::string& name, double value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_reals(const std::string& name, const real* data,
                                std::size_t count) {
  SGNN_CHECK(data != nullptr || count == 0, "null data in snapshot section");
  std::string bytes(count * sizeof(real), '\0');
  std::memcpy(bytes.data(), data, bytes.size());
  add_bytes(name, std::move(bytes));
}

void SnapshotBuilder::add_u64s(const std::string& name,
                               const std::vector<std::uint64_t>& values) {
  std::string bytes(values.size() * sizeof(std::uint64_t), '\0');
  std::memcpy(bytes.data(), values.data(), bytes.size());
  add_bytes(name, std::move(bytes));
}

std::string SnapshotBuilder::payload() const {
  std::ostringstream out;
  write_raw(out, static_cast<std::uint64_t>(sections_.size()));
  for (const auto& [name, bytes] : sections_) {
    write_raw(out, static_cast<std::uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_raw(out, static_cast<std::uint64_t>(bytes.size()));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return out.str();
}

// -- SnapshotView -----------------------------------------------------------

SnapshotView::SnapshotView(const std::string& payload) {
  std::size_t cursor = 0;
  const auto take = [&](std::size_t count) {
    SGNN_CHECK(cursor + count <= payload.size(),
               "snapshot payload truncated at byte " << cursor);
    const char* begin = payload.data() + cursor;
    cursor += count;
    return begin;
  };
  const auto take_u64 = [&] {
    std::uint64_t value;
    std::memcpy(&value, take(sizeof(value)), sizeof(value));
    return value;
  };
  const std::uint64_t count = take_u64();
  // Each section costs at least 16 bytes of framing; a corrupt count can
  // therefore never drive more iterations than the payload could hold.
  SGNN_CHECK(count <= payload.size() / 16,
             "snapshot section count " << count << " exceeds payload bounds");
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_size = take_u64();
    SGNN_CHECK(name_size > 0 && name_size <= payload.size(),
               "snapshot section name out of bounds");
    std::string name(take(name_size), name_size);
    const std::uint64_t data_size = take_u64();
    SGNN_CHECK(data_size <= payload.size() - cursor,
               "snapshot section '" << name << "' data out of bounds");
    std::string bytes(take(data_size), data_size);
    SGNN_CHECK(sections_.emplace(std::move(name), std::move(bytes)).second,
               "snapshot carries a duplicate section");
  }
  SGNN_CHECK(cursor == payload.size(),
             "snapshot payload has " << payload.size() - cursor
                                     << " trailing bytes");
}

bool SnapshotView::has(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

const std::string& SnapshotView::bytes(const std::string& name) const {
  const auto it = sections_.find(name);
  SGNN_CHECK(it != sections_.end(),
             "snapshot is missing section '" << name << "'");
  return it->second;
}

std::uint64_t SnapshotView::u64(const std::string& name) const {
  return pod_from_bytes<std::uint64_t>(bytes(name));
}

std::int64_t SnapshotView::i64(const std::string& name) const {
  return pod_from_bytes<std::int64_t>(bytes(name));
}

double SnapshotView::f64(const std::string& name) const {
  return pod_from_bytes<double>(bytes(name));
}

std::vector<real> SnapshotView::reals(const std::string& name) const {
  const std::string& raw = bytes(name);
  SGNN_CHECK(raw.size() % sizeof(real) == 0,
             "snapshot section '" << name << "' is not a real[] image");
  std::vector<real> values(raw.size() / sizeof(real));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

std::vector<std::uint64_t> SnapshotView::u64s(const std::string& name) const {
  const std::string& raw = bytes(name);
  SGNN_CHECK(raw.size() % sizeof(std::uint64_t) == 0,
             "snapshot section '" << name << "' is not a u64[] image");
  std::vector<std::uint64_t> values(raw.size() / sizeof(std::uint64_t));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

// -- container file IO ------------------------------------------------------

void write_snapshot_file(const std::string& path, const std::string& payload) {
  write_framed_file(path, kMagic, kVersion, payload, kWhat);
}

std::string read_snapshot_file(const std::string& path) {
  return read_framed_file(path, kMagic, kVersion, kWhat);
}

// -- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(std::string directory, int keep_last)
    : directory_(std::move(directory)), keep_last_(keep_last) {
  SGNN_CHECK(!directory_.empty(), "checkpoint directory must be set");
  SGNN_CHECK(keep_last_ >= 2,
             "keep_last must be >= 2 so a corrupt newest checkpoint always "
             "leaves a good fallback");
}

std::string CheckpointManager::save(std::uint64_t step,
                                    const std::string& payload) {
  const WallTimer timer;
  std::filesystem::create_directories(directory_);
  const std::string path =
      (std::filesystem::path(directory_) / snapshot_file_name(step)).string();
  write_snapshot_file(path, payload);

  // Retention: prune oldest beyond keep_last. The newly written file is in
  // the listing, so keep_last bounds what survives on disk.
  auto snapshots = list_snapshots(directory_);
  const std::size_t keep = static_cast<std::size_t>(keep_last_);
  if (snapshots.size() > keep) {
    for (std::size_t i = 0; i + keep < snapshots.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(snapshots[i].second, ec);
    }
  }

  const std::uint64_t file_bytes = payload.size() + kFramedFileOverhead;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.counter("ckpt.writes").add(1);
  registry.counter("ckpt.bytes").add(static_cast<std::int64_t>(file_bytes));
  registry.histogram("ckpt.write_seconds").observe(timer.seconds());
  SGNN_LOG_DEBUG << "checkpoint step " << step << " -> " << path << " ("
                 << file_bytes << " bytes)";
  return path;
}

std::optional<CheckpointManager::Loaded> CheckpointManager::load_latest(
    const std::string& location) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> candidates;
  if (std::filesystem::is_directory(location)) {
    candidates = list_snapshots(location);
  } else if (std::filesystem::is_regular_file(location)) {
    const auto step =
        parse_snapshot_step(std::filesystem::path(location).filename().string());
    candidates.emplace_back(step.value_or(0), location);
  }
  // Newest first; fall back across corrupt files to the last good one.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    try {
      Loaded loaded;
      loaded.payload = read_snapshot_file(it->second.string());
      loaded.step = it->first;
      loaded.path = it->second.string();
      registry.counter("ckpt.restores").add(1);
      return loaded;
    } catch (const Error& error) {
      registry.counter("ckpt.corrupt_skipped").add(1);
      SGNN_LOG_WARN << "skipping unreadable checkpoint " << it->second
                    << ": " << error.what();
    }
  }
  return std::nullopt;
}

}  // namespace sgnn::ckpt
