#include "synth/history.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace hcg::synth {

std::string selection_key(std::string_view actor_type, DataType dtype,
                          const std::vector<Shape>& in_shapes) {
  std::string out(actor_type);
  out += " ";
  out += short_name(dtype);
  for (const Shape& s : in_shapes) {
    out += " ";
    out += s.to_string();
  }
  return out;
}

void SelectionHistory::copy_from(const SelectionHistory& other) {
  std::scoped_lock lock(mutex_, other.mutex_);
  entries_ = other.entries_;
  hits_ = other.hits_;
  misses_ = other.misses_;
}

SelectionHistory& SelectionHistory::operator=(const SelectionHistory& other) {
  if (this == &other) return *this;
  copy_from(other);
  return *this;
}

SelectionHistory& SelectionHistory::operator=(
    SelectionHistory&& other) noexcept {
  if (this == &other) return *this;
  copy_from(other);
  return *this;
}

std::optional<std::string> SelectionHistory::lookup(
    std::string_view actor_type, DataType dtype,
    const std::vector<Shape>& in_shapes) const {
  static obs::Counter& hit_metric =
      obs::Registry::instance().counter("synth.history.hits");
  static obs::Counter& miss_metric =
      obs::Registry::instance().counter("synth.history.misses");
  const std::string key = selection_key(actor_type, dtype, in_shapes);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    miss_metric.add();
    return std::nullopt;
  }
  ++hits_;
  hit_metric.add();
  return it->second;
}

void SelectionHistory::store(std::string_view actor_type, DataType dtype,
                             const std::vector<Shape>& in_shapes,
                             std::string_view impl_id) {
  std::string key = selection_key(actor_type, dtype, in_shapes);
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[std::move(key)] = std::string(impl_id);
}

std::size_t SelectionHistory::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void SelectionHistory::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::uint64_t SelectionHistory::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t SelectionHistory::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void SelectionHistory::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ = 0;
  misses_ = 0;
}

std::string SelectionHistory::serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [k, v] : entries_) {
    out += k + " -> " + v + "\n";
  }
  return out;
}

SelectionHistory SelectionHistory::deserialize(std::string_view text) {
  SelectionHistory history;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty() || line[0] == '#') continue;
    const size_t arrow = line.find(" -> ");
    if (arrow == std::string::npos) {
      throw ParseError("bad selection-history line: '" + line + "'");
    }
    history.entries_[line.substr(0, arrow)] = line.substr(arrow + 4);
  }
  return history;
}

SelectionHistory SelectionHistory::deserialize_tolerant(std::string_view text,
                                                        LoadStats* stats) {
  static obs::Counter& dropped_metric =
      obs::Registry::instance().counter("synth.history.dropped_lines");
  SelectionHistory history;
  LoadStats local;
  for (std::string line : split(text, '\n')) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF file
    if (line.empty() || line[0] == '#') continue;
    const size_t arrow = line.find(" -> ");
    std::string key =
        arrow == std::string::npos ? std::string() : line.substr(0, arrow);
    std::string value =
        arrow == std::string::npos ? std::string() : line.substr(arrow + 4);
    if (key.empty() || value.empty()) {
      // Corrupt or truncated entry (a torn legacy write, stray bytes, a
      // half-flushed final line): skip it, keep the rest of the cache.
      ++local.dropped;
      dropped_metric.add();
      continue;
    }
    history.entries_[std::move(key)] = std::move(value);
    ++local.loaded;
  }
  if (local.dropped > 0) {
    log_warn("synth") << "selection history: dropped " << local.dropped
                      << " unparseable line(s), kept " << local.loaded;
  }
  if (stats != nullptr) *stats = local;
  return history;
}

void SelectionHistory::save(const std::filesystem::path& path) const {
  write_file_atomic(path, "# hcg-history-v1\n" + serialize());
}

SelectionHistory SelectionHistory::load(const std::filesystem::path& path,
                                        LoadStats* stats) {
  return deserialize_tolerant(read_file(path), stats);
}

}  // namespace hcg::synth
