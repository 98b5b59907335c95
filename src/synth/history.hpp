// Selection history (Algorithm 1, lines 1-6 and 18): a persistent cache of
// (actor type, data type, data size) -> chosen implementation, so repeated
// synthesis of the same actor shape skips the pre-calculation run.
//
// Thread-safe: one mutex guards the entry map and the hit/miss statistics,
// so several generations may share one history.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "model/datatype.hpp"
#include "model/tensor.hpp"

namespace hcg::synth {

/// The canonical history key, "FFT c64 1024" — also the key of the in-run
/// SelectionMemo.
std::string selection_key(std::string_view actor_type, DataType dtype,
                          const std::vector<Shape>& in_shapes);

class SelectionHistory {
 public:
  SelectionHistory() = default;
  SelectionHistory(const SelectionHistory& other) { copy_from(other); }
  SelectionHistory(SelectionHistory&& other) noexcept { copy_from(other); }
  SelectionHistory& operator=(const SelectionHistory& other);
  SelectionHistory& operator=(SelectionHistory&& other) noexcept;

  /// loadSelectionHistory + match (Algorithm 1 lines 3-6).
  std::optional<std::string> lookup(std::string_view actor_type,
                                    DataType dtype,
                                    const std::vector<Shape>& in_shapes) const;

  /// storeSelection (Algorithm 1 line 18).
  void store(std::string_view actor_type, DataType dtype,
             const std::vector<Shape>& in_shapes, std::string_view impl_id);

  std::size_t size() const;
  void clear();

  /// Lookup statistics since construction (a warm history shows hits, a cold
  /// one only misses).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void reset_stats();

  /// Line-based text form: "FFT c64 1024 fft_radix4".  Entries are emitted
  /// in key order, so the serialized form is deterministic.
  std::string serialize() const;
  static SelectionHistory deserialize(std::string_view text);

  /// What a tolerant load saw: entries kept, lines dropped as unparseable.
  struct LoadStats {
    std::size_t loaded = 0;
    std::size_t dropped = 0;
  };

  /// Like deserialize() but never throws on a bad line: corrupt, truncated
  /// or alien lines are skipped and counted, CRLF endings are accepted, so
  /// one torn entry cannot cost a whole warm cache.
  static SelectionHistory deserialize_tolerant(std::string_view text,
                                               LoadStats* stats = nullptr);

  /// Atomic save: temp file + rename with a "# hcg-history-v1" header.  A
  /// crash mid-save leaves the previous complete file, never a partial one;
  /// concurrent savers leave one well-formed winner.
  void save(const std::filesystem::path& path) const;

  /// Tolerant load (see deserialize_tolerant); throws only when the file
  /// cannot be read at all.
  static SelectionHistory load(const std::filesystem::path& path,
                               LoadStats* stats = nullptr);

 private:
  void copy_from(const SelectionHistory& other);

  mutable std::mutex mutex_;
  std::map<std::string, std::string> entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace hcg::synth
