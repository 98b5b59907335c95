#include "cgir/passes.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/faults.hpp"
#include "support/stopwatch.hpp"

namespace hcg::cgir {
namespace {

// ---------------------------------------------------------------------------
// Access summaries.
//
// A statement's effect on memory is summarized per buffer: whether it reads
// or writes the buffer, and whether the access is ranged.  Elementwise
// accesses inside a loop are ranged: they cover exactly the loop's
// iteration domain [begin, end), so every ranged access of one statement
// covers the same domain.  Everything else is treated as touching the whole
// buffer.  Two ranged accesses with disjoint domains never alias, which is
// what lets a scalar remainder loop over [0, off) slide past a vector loop
// over [off, len).
//
// Buffer names are interned to small integer ids once per fusion call, so
// summaries hold one (id, mode) entry per buffer, sorted by id, and the
// conflict checks compare integers.
// ---------------------------------------------------------------------------

/// Small integer ids for the names one fusion call sees, in first-seen
/// order.  Only the ids are ever read, never the table's iteration order.
class Interner {
 public:
  int id(const std::string& name) {
    return ids_.try_emplace(name, static_cast<int>(ids_.size())).first->second;
  }
  std::size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, int> ids_;
};

enum : unsigned char {
  kWholeRead = 1,
  kWholeWrite = 2,
  kRangedRead = 4,
  kRangedWrite = 8,
  kWhole = kWholeRead | kWholeWrite,
  kWrites = kWholeWrite | kRangedWrite,
};

struct BufferTouch {
  int buffer = 0;
  unsigned char mode = 0;  // kWhole*/kRanged* bits
};

struct AccessSummary {
  std::vector<BufferTouch> touches;  // one per buffer, sorted by id
  int begin = 0;  // domain of every ranged access
  int end = 0;
};

bool before(const BufferTouch& touch, int buffer) {
  return touch.buffer < buffer;
}

/// Adds `touch` to the sorted `touches`, joining it with an entry for the
/// same buffer.
void add_touch(std::vector<BufferTouch>& touches, BufferTouch touch) {
  auto it = std::lower_bound(touches.begin(), touches.end(), touch.buffer, before);
  if (it != touches.end() && it->buffer == touch.buffer) {
    it->mode |= touch.mode;
  } else {
    touches.insert(it, touch);
  }
}

void add_access(const BufferAccess& access, bool ranged, Interner& buffers,
                std::vector<BufferTouch>& touches) {
  const unsigned char mode =
      ranged ? (access.write ? kRangedWrite : kRangedRead)
             : (access.write ? kWholeWrite : kWholeRead);
  add_touch(touches, {buffers.id(access.buffer), mode});
}

/// Adds every access under `stmt`, all whole-buffer.
void add_conservative(const Stmt& stmt, Interner& buffers,
                      std::vector<BufferTouch>& touches) {
  if (stmt.kind == Stmt::Kind::kText) {
    for_each_access(stmt, [&](const BufferAccess& access) {
      add_access(access, false, buffers, touches);
    });
    return;
  }
  for (const Stmt& line : stmt.body) add_conservative(line, buffers, touches);
}

/// Adds one loop-body line's accesses; elementwise ones are ranged over the
/// enclosing loop's domain.
void add_body_line(const Stmt& line, Interner& buffers,
                   std::vector<BufferTouch>& touches) {
  if (line.kind == Stmt::Kind::kText) {
    for_each_access(line, [&](const BufferAccess& access) {
      add_access(access, access.elementwise, buffers, touches);
    });
  } else if (line.strip_mined) {
    // A strip-mined lane loop iterates [0, step) while the enclosing loop
    // strides by step: together they cover exactly the enclosing loop's
    // domain, so its elementwise accesses are ranged at the outer level.
    for (const Stmt& inner : line.body) {
      if (inner.kind == Stmt::Kind::kText) {
        add_body_line(inner, buffers, touches);
      } else {
        add_conservative(inner, buffers, touches);
      }
    }
  } else {
    add_conservative(line, buffers, touches);
  }
}

AccessSummary summarize(const Stmt& stmt, Interner& buffers) {
  AccessSummary summary;
  if (stmt.kind == Stmt::Kind::kText) {
    add_conservative(stmt, buffers, summary.touches);
    return summary;
  }
  summary.begin = stmt.begin;
  summary.end = stmt.end;
  for (const Stmt& line : stmt.body) add_body_line(line, buffers, summary.touches);
  return summary;
}

bool domains_overlap(int a_begin, int a_end, int b_begin, int b_end) {
  return !(a_end <= b_begin || b_end <= a_begin);
}

/// Whether two statements' accesses to one buffer conflict: some pair of
/// accesses includes a write and may alias.  Ranged pairs alias only when
/// the two domains overlap; a whole-buffer access aliases everything.
bool modes_conflict(unsigned char a, unsigned char b, bool ranges_overlap) {
  if (ranges_overlap) return ((a & kWrites) && b) || (a && (b & kWrites));
  return ((a & kWholeWrite) && b) || ((a & kWhole) && (b & kWrites)) ||
         ((b & kWholeWrite) && a) || ((b & kWhole) && (a & kWrites));
}

/// Looks each buffer of the smaller summary up in the larger one.
bool conflicts(const AccessSummary& a, const AccessSummary& b,
               bool ranges_overlap) {
  const bool a_smaller = a.touches.size() <= b.touches.size();
  const std::vector<BufferTouch>& small = a_smaller ? a.touches : b.touches;
  const std::vector<BufferTouch>& large = a_smaller ? b.touches : a.touches;
  for (const BufferTouch& touch : small) {
    auto it = std::lower_bound(large.begin(), large.end(), touch.buffer, before);
    if (it != large.end() && it->buffer == touch.buffer &&
        modes_conflict(touch.mode, it->mode, ranges_overlap)) {
      return true;
    }
  }
  return false;
}

bool conflicts(const AccessSummary& a, const AccessSummary& b) {
  return conflicts(a, b, domains_overlap(a.begin, a.end, b.begin, b.end));
}

// ---------------------------------------------------------------------------
// Loop fusion.
// ---------------------------------------------------------------------------

/// What decides whether two fusible loops have the same shape.
struct FusionShape {
  bool vector_loop = false;
  bool single_iteration = false;
  int begin = 0;
  int end = 0;
  int step = 0;

  auto operator<=>(const FusionShape&) const = default;
};

/// Numbers the distinct shapes of the fusible loops in `body`; every other
/// statement gets -1.
std::vector<int> fusion_shapes(const std::vector<Stmt>& body) {
  std::map<FusionShape, int> ids;
  std::vector<int> shape_of(body.size(), -1);
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Stmt& stmt = body[i];
    if (stmt.kind != Stmt::Kind::kLoop || !stmt.fusible) continue;
    const FusionShape shape{stmt.vector_loop, stmt.single_iteration,
                            stmt.begin, stmt.end, stmt.step};
    shape_of[i] =
        ids.try_emplace(shape, static_cast<int>(ids.size())).first->second;
  }
  return shape_of;
}

/// The array the first read (or write) piece of `line` names, or null.
const std::string* first_access(const Stmt& line, bool write) {
  for (const Piece& piece : line.pieces) {
    if (piece.is_access() && piece.write == write) return &piece.text;
  }
  return nullptr;
}

/// The ids merging reads of one fusible loop body line.
struct LineIds {
  int defines = -1;  // local the line declares
  int loaded = -1;   // buffer an is_load line reads
  int stored = -1;   // buffer an is_store line writes
};

/// What merging needs of a fusible loop besides its access summary, kept
/// beside it and extended (not rebuilt) when a later loop merges in.
struct LoopIndex {
  bool built = false;
  std::vector<LineIds> lines;                // parallel to the loop's body
  std::vector<std::pair<int, int>> defined;  // local -> first defining line
  std::vector<int> stored;                   // buffers is_store lines write
};

LineIds line_ids(const Stmt& line, Interner& buffers, Interner& locals) {
  LineIds ids;
  if (!line.defines.empty()) ids.defines = locals.id(line.defines);
  if (line.is_load) {
    if (const std::string* buf = first_access(line, false)) {
      ids.loaded = buffers.id(*buf);
    }
  }
  if (line.is_store) {
    if (const std::string* buf = first_access(line, true)) {
      ids.stored = buffers.id(*buf);
    }
  }
  return ids;
}

/// Enters index.lines[from, end) into the defined-locals and stored-buffers
/// index; a local keeps the first line that defines it.
void index_lines(LoopIndex& index, std::size_t from) {
  for (std::size_t j = from; j < index.lines.size(); ++j) {
    const LineIds& ids = index.lines[j];
    if (ids.defines >= 0) {
      auto it = std::lower_bound(index.defined.begin(), index.defined.end(),
                                 std::make_pair(ids.defines, -1));
      if (it == index.defined.end() || it->first != ids.defines) {
        index.defined.insert(it, {ids.defines, static_cast<int>(j)});
      }
    }
    if (ids.stored >= 0) {
      auto it = std::lower_bound(index.stored.begin(), index.stored.end(),
                                 ids.stored);
      if (it == index.stored.end() || *it != ids.stored) {
        index.stored.insert(it, ids.stored);
      }
    }
  }
}

/// The body line of the indexed loop that defines `local`, or -1.
int defining_line(const LoopIndex& index, int local) {
  auto it = std::lower_bound(index.defined.begin(), index.defined.end(),
                             std::make_pair(local, -1));
  return it != index.defined.end() && it->first == local ? it->second : -1;
}

bool stores(const LoopIndex& index, int buffer) {
  return buffer >= 0 &&
         std::binary_search(index.stored.begin(), index.stored.end(), buffer);
}

/// Merging `later` into `earlier` preserves semantics when every buffer the
/// two bodies share (with at least one write) is accessed elementwise on
/// both sides: with identical iteration domains, running the bodies
/// back-to-back per iteration sees exactly the values the separate loops
/// saw.  In summary terms, the two would not conflict if their ranged
/// accesses were disjoint.  A later line may redefine an earlier local only
/// as a shared load, which merge_bodies drops: it loads exactly what the
/// earlier defining line loaded (same text), from a buffer the earlier loop
/// does not store.
bool merge_compatible(const Stmt& earlier, const AccessSummary& earlier_summary,
                      const LoopIndex& earlier_index, const Stmt& later,
                      const AccessSummary& later_summary,
                      const LoopIndex& later_index) {
  if (conflicts(earlier_summary, later_summary, /*ranges_overlap=*/false)) {
    return false;
  }
  for (std::size_t j = 0; j < later.body.size(); ++j) {
    const LineIds& ids = later_index.lines[j];
    if (ids.defines < 0) continue;
    const int at = defining_line(earlier_index, ids.defines);
    if (at < 0) continue;
    const Stmt& line = later.body[j];
    if (!line.is_load || stores(earlier_index, ids.loaded) ||
        earlier.body[static_cast<std::size_t>(at)].pieces != line.pieces) {
      return false;
    }
  }
  return true;
}

/// Appends `later`'s body to `earlier`'s, dropping loads that duplicate a
/// load `earlier` already performs (same variable, same text), and extends
/// `earlier`'s summary and index by the appended lines.
void merge_bodies(Stmt& earlier, AccessSummary& summary, LoopIndex& index,
                  Stmt&& later, const AccessSummary& later_summary,
                  const LoopIndex& later_index, Interner& buffers,
                  PassStats& stats) {
  const std::size_t own_lines = earlier.body.size();
  for (std::size_t j = 0; j < later.body.size(); ++j) {
    Stmt& line = later.body[j];
    const LineIds& ids = later_index.lines[j];
    // merge_compatible admitted a repeated local only as a shared load.
    if (ids.defines >= 0 && defining_line(index, ids.defines) >= 0) {
      ++stats.copies_elided;
      continue;
    }
    earlier.body.push_back(std::move(line));
    index.lines.push_back(ids);
  }
  index_lines(index, own_lines);
  if (earlier.body.size() - own_lines == later.body.size()) {
    for (const BufferTouch& touch : later_summary.touches) {
      add_touch(summary.touches, touch);
    }
  } else {
    for (std::size_t j = own_lines; j < earlier.body.size(); ++j) {
      add_body_line(earlier.body[j], buffers, summary.touches);
    }
  }
  earlier.banner_actors += later.banner_actors;
  // An earlier loop without a banner (e.g. a strip-mined scalar loop) takes
  // the later loop's ISA name along with its actor count.
  if (earlier.banner_isa.empty()) {
    earlier.banner_isa = std::move(later.banner_isa);
  }
}

/// Same-shape loop fusion over one statement list, in one forward pass.
/// At each fusible loop `later` the scan walks back through the statements
/// it has kept so far, stopping at the nearest one that conflicts with
/// `later`, and merges `later` into the first same-shape loop on that walk
/// that passes merge_compatible.  Everything between the two therefore is
/// independent of `later` and stays where it is, behind the merged loop.
/// Only `later`'s body moves; no other statement is hoisted above a merged
/// loop, so fusion never makes a kernel's output live before it would be.
///
/// Each statement is summarized once.  A fusible loop's defined-locals and
/// stored-buffers index is built the first time it is a merge candidate; a
/// merge extends the merged loop's summary and index by the appended lines
/// only.  Kept statements are compacted to the front of `body` as the scan
/// goes, together with their summaries, indexes and shapes.
void fuse_same_shape(std::vector<Stmt>& body, PassStats& stats) {
  Interner buffers;
  Interner locals;
  std::vector<int> shape_of = fusion_shapes(body);
  std::vector<AccessSummary> summaries(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    summaries[i] = summarize(body[i], buffers);
  }
  std::vector<LoopIndex> indexes(body.size());
  auto index_of = [&](std::size_t i) -> LoopIndex& {
    LoopIndex& index = indexes[i];
    if (!index.built) {
      for (const Stmt& line : body[i].body) {
        index.lines.push_back(line_ids(line, buffers, locals));
      }
      index_lines(index, 0);
      index.built = true;
    }
    return index;
  };

  std::size_t kept = 0;  // body[0, kept) holds the statements kept so far
  for (std::size_t p = 0; p < body.size(); ++p) {
    std::size_t target = kept;  // kept: no merge
    if (shape_of[p] >= 0) {
      for (std::size_t q = kept; q-- > 0;) {
        if (shape_of[q] == shape_of[p] &&
            merge_compatible(body[q], summaries[q], index_of(q), body[p],
                             summaries[p], index_of(p))) {
          target = q;
          break;
        }
        if (conflicts(summaries[q], summaries[p])) break;
      }
    }
    if (target < kept) {
      merge_bodies(body[target], summaries[target], indexes[target],
                   std::move(body[p]), summaries[p], indexes[p], buffers,
                   stats);
      ++stats.loops_fused;
      continue;
    }
    if (p != kept) {
      body[kept] = std::move(body[p]);
      summaries[kept] = std::move(summaries[p]);
      indexes[kept] = std::move(indexes[p]);
      shape_of[kept] = shape_of[p];
    }
    ++kept;
  }
  body.erase(body.begin() + static_cast<std::ptrdiff_t>(kept), body.end());
}

// ---------------------------------------------------------------------------
// Copy forwarding.
// ---------------------------------------------------------------------------

/// Scalar loop bodies: each read of `buf[i]` where an earlier line in the
/// same body stored `buf[i] = var;` becomes the local `var`.  A nested loop
/// may rewrite any stored buffer, so no read forwards across one.
void forward_scalar(Stmt& loop, PassStats& stats) {
  std::map<std::string, std::string> stored;  // buffer -> scalar variable
  for (Stmt& line : loop.body) {
    if (line.kind == Stmt::Kind::kLoop) {
      stored.clear();
      continue;
    }
    const std::string* own_store =
        line.is_store ? first_access(line, true) : nullptr;
    for (Piece& piece : line.pieces) {
      if (piece.kind != Piece::Kind::kElement || piece.write ||
          piece.var != loop.induction_var || !piece.lane.empty()) {
        continue;
      }
      if (own_store != nullptr && *own_store == piece.text) continue;
      auto it = stored.find(piece.text);
      if (it == stored.end()) continue;
      piece = Piece::local(it->second);
      ++stats.copies_elided;
    }
    if (own_store != nullptr) stored[*own_store] = line.stores_var;
  }
}

// ---------------------------------------------------------------------------
// Arena reuse.
// ---------------------------------------------------------------------------

struct LiveRange {
  int first_write = -1;
  int last_access = -1;
};

/// Records every access under `stmt` at whole-statement `position`.
void record_accesses(const Stmt& stmt, int position,
                     std::map<std::string, LiveRange>& ranges) {
  if (stmt.kind == Stmt::Kind::kLoop) {
    for (const Stmt& line : stmt.body) record_accesses(line, position, ranges);
    return;
  }
  for_each_access(stmt, [&](const BufferAccess& access) {
    auto it = ranges.find(access.buffer);
    if (it == ranges.end()) return;
    if (access.write &&
        (it->second.first_write < 0 || position < it->second.first_write)) {
      it->second.first_write = position;
    }
    it->second.last_access = std::max(it->second.last_access, position);
  });
}

void record_liveness(const std::vector<Stmt>& body, int& position,
                     std::map<std::string, LiveRange>& ranges) {
  for (const Stmt& top : body) record_accesses(top, position++, ranges);
}

/// Renames every piece naming an array in `renames`.
void rename_buffers(std::vector<Stmt>& body,
                    const std::map<std::string, std::string, std::less<>>& renames) {
  for (Stmt& stmt : body) {
    rename_buffers(stmt.body, renames);
    for (Piece& piece : stmt.pieces) {
      if (!piece.is_access()) continue;
      auto it = renames.find(piece.text);
      if (it != renames.end()) piece.text = it->second;
    }
  }
}

struct ArenaSlot {
  std::string ctype;
  std::size_t elem_bytes = 0;
  int components = 0;
  int free_at = -1;
  std::string first_member;  // decl whose position the slot inherits
};

void reuse_arena(TranslationUnit& tu, PassStats& stats) {
  std::map<std::string, LiveRange> ranges;
  for (const BufferDecl& decl : tu.buffers) {
    if (decl.arena_eligible && !decl.is_const) ranges.emplace(decl.name, LiveRange{});
  }
  if (ranges.empty()) return;
  int position = 0;
  record_liveness(tu.init.body, position, ranges);
  record_liveness(tu.step.body, position, ranges);

  // Process buffers in order of first write so slot intervals stay disjoint.
  std::vector<std::pair<const BufferDecl*, const LiveRange*>> eligible;
  for (const BufferDecl& decl : tu.buffers) {
    if (!decl.arena_eligible || decl.is_const) continue;
    const LiveRange& range = ranges.at(decl.name);
    if (range.first_write < 0) continue;  // never written
    eligible.emplace_back(&decl, &range);
  }
  std::stable_sort(eligible.begin(), eligible.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->first_write < b.second->first_write;
                   });

  std::vector<ArenaSlot> slots;
  std::map<std::string, std::size_t> slot_of;  // buffer -> slot index
  std::size_t before_bytes = 0;
  for (const auto& [decl, live] : eligible) {
    before_bytes += decl->bytes();
    const LiveRange& range = *live;
    std::size_t chosen = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].ctype == decl->ctype &&
          slots[s].elem_bytes == decl->elem_bytes &&
          slots[s].free_at < range.first_write) {
        chosen = s;
        break;
      }
    }
    if (chosen == slots.size()) {
      slots.push_back({decl->ctype, decl->elem_bytes, 0, -1, decl->name});
    }
    ArenaSlot& slot = slots[chosen];
    slot.components = std::max(slot.components, decl->components);
    slot.free_at = std::max(slot.free_at, range.last_access);
    slot_of[decl->name] = chosen;
  }
  if (slot_of.empty()) return;

  // Pick collision-free slot names.  Slots are named buf<N>, so only a
  // kept declaration whose name starts with "buf" can collide with one.
  std::set<std::string> taken;
  for (const BufferDecl& decl : tu.buffers) {
    if (decl.name.starts_with("buf") && !slot_of.count(decl.name)) {
      taken.insert(decl.name);
    }
  }
  std::vector<std::string> slot_names;
  int next_id = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::string name;
    do {
      name = "buf" + std::to_string(next_id++);
    } while (taken.count(name));
    slot_names.push_back(name);
  }

  // Rename every rebound buffer across the whole unit, in one walk.
  std::map<std::string, std::string, std::less<>> renames;
  for (const auto& [name, slot] : slot_of) renames.emplace(name, slot_names[slot]);
  rename_buffers(tu.init.body, renames);
  rename_buffers(tu.step.body, renames);

  // Rebuild the declaration list: the first member of each slot (in decl
  // order) becomes the slot's declaration; later members disappear.
  std::vector<BufferDecl> rebuilt;
  std::set<std::size_t> declared;
  std::size_t after_bytes = 0;
  for (const BufferDecl& decl : tu.buffers) {
    auto it = slot_of.find(decl.name);
    if (it == slot_of.end()) {
      rebuilt.push_back(decl);
      continue;
    }
    if (!declared.insert(it->second).second) continue;
    const ArenaSlot& slot = slots[it->second];
    BufferDecl merged = decl;
    merged.name = slot_names[it->second];
    merged.components = slot.components;
    rebuilt.push_back(merged);
    after_bytes += merged.bytes();
  }
  tu.buffers = std::move(rebuilt);

  if (before_bytes > after_bytes) {
    stats.arena_bytes_saved = before_bytes - after_bytes;
  }

  // Record each rebinding with the live range that justified it, so the
  // verifier can re-check slot disjointness (invisible in the renamed IR).
  for (const auto& [name, slot] : slot_of) {
    const LiveRange& range = ranges.at(name);
    stats.arena_bindings.push_back(ArenaBinding{
        slot_names[slot], name, range.first_write, range.last_access});
  }
}

// ---------------------------------------------------------------------------
// -O2: cross-scale fusion.
// ---------------------------------------------------------------------------

/// True for a conventional scalar loop cross-scale fusion may strip-mine:
/// full-range ([0, n) step 1), body entirely single-assignment text lines
/// (no locals, no nested loops), not itself produced by strip-mining.
/// Predicated VLA loops are excluded outright: their runtime stride makes
/// any static reshaping of the iteration domain unsound.
bool plain_scalar_loop(const Stmt& stmt) {
  if (stmt.kind != Stmt::Kind::kLoop || stmt.vector_loop ||
      stmt.single_iteration || stmt.strip_mined || stmt.predicated) {
    return false;
  }
  if (stmt.begin != 0 || stmt.step != 1) return false;
  for (const Stmt& line : stmt.body) {
    if (line.kind != Stmt::Kind::kText || !line.defines.empty()) return false;
  }
  return true;
}

/// Builds the strip-mined lane loop for `source`'s body: iterates k over
/// [0, lanes) with every use of the outer induction variable re-indexed to
/// `(i + k)`.  The accesses stay elementwise: the per-outer-iteration
/// footprint is still exactly [i, i + lanes).
Stmt make_strip_inner(const Stmt& source, int lanes) {
  Stmt inner;
  inner.kind = Stmt::Kind::kLoop;
  inner.begin = 0;
  inner.end = lanes;
  inner.step = 1;
  inner.strip_mined = true;
  inner.induction_var = "k";
  for (const Stmt& line : source.body) {
    Stmt moved = line;
    for (Piece& piece : moved.pieces) {
      if (piece.var == source.induction_var) piece.lane = inner.induction_var;
    }
    inner.body.push_back(std::move(moved));
  }
  return inner;
}

/// Cross-scale producer-consumer fusion: a plain scalar loop over [0, n)
/// that could not join a batch region (a scale boundary — the HCG4xx
/// remarks name the reason) strip-mines into the shape of a fusible vector
/// loop over the same width, then the same-shape fuser merges the pair (and
/// the scalar front cover [0, begin) merges with the region's remainder
/// loop).  A strip-mine that does not end in a fusion is rolled back, so
/// the pass never leaves pure strip wrappers behind.
void fuse_cross_scale(TranslationUnit& tu, PassStats& stats) {
  std::vector<Stmt>& body = tu.step.body;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < body.size() && !changed; ++s) {
      if (!plain_scalar_loop(body[s]) || !body[s].fusible) continue;
      for (std::size_t v = 0; v < body.size() && !changed; ++v) {
        if (v == s) continue;
        const Stmt& vec = body[v];
        if (vec.kind != Stmt::Kind::kLoop || !vec.fusible) continue;
        if (!vec.vector_loop && !vec.single_iteration) continue;
        if (vec.step <= 1 || vec.end != body[s].end) continue;

        std::vector<Stmt> backup = body;
        const int fused_before = stats.loops_fused;
        const int elided_before = stats.copies_elided;

        Stmt strip;
        strip.kind = Stmt::Kind::kLoop;
        strip.begin = vec.begin;
        strip.end = vec.end;
        strip.step = vec.step;
        strip.vector_loop = vec.vector_loop;
        strip.single_iteration = vec.single_iteration;
        strip.fusible = true;
        strip.body.push_back(make_strip_inner(body[s], vec.step));

        std::vector<Stmt> pieces;
        if (strip.begin > 0) {
          Stmt front = body[s];  // scalar cover of [0, begin)
          front.end = strip.begin;
          pieces.push_back(std::move(front));
        }
        pieces.push_back(std::move(strip));
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(s));
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(s),
                    std::make_move_iterator(pieces.begin()),
                    std::make_move_iterator(pieces.end()));

        fuse_same_shape(body, stats);
        bool unfused_wrapper = false;
        for (const Stmt& top : body) {
          if (top.kind == Stmt::Kind::kLoop && top.body.size() == 1 &&
              top.body[0].kind == Stmt::Kind::kLoop &&
              top.body[0].strip_mined) {
            unfused_wrapper = true;
          }
        }
        if (stats.loops_fused > fused_before && !unfused_wrapper) {
          ++stats.cross_scale_fused;
          changed = true;
        } else {
          body = std::move(backup);
          stats.loops_fused = fused_before;
          stats.copies_elided = elided_before;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// -O2: strip-body lane localization.
// ---------------------------------------------------------------------------

/// Array name -> element C type.
using ArrayTypes = std::map<std::string, std::string>;

/// Arrays a strip body touches, in first-appearance order.  An array in
/// `written` but not `read` is fully overwritten by the lane loop (every
/// line runs unconditionally for every lane), so it needs no copy-in.
struct StripArrays {
  std::vector<std::string> names;
  std::set<std::string> read;
  std::set<std::string> written;
};

/// Collects the arrays `strip`'s body indexes, requiring every element
/// piece to sit at `(<outer_iv> + <lane_iv>)` of an array of known type and
/// no loop index to appear outside one.  Returns false when the body does
/// anything the lane rewrite cannot represent.
bool collect_strip_arrays(
    const Stmt& strip, const std::string& outer_iv,
    const ArrayTypes& types, StripArrays& out) {
  for (const Stmt& line : strip.body) {
    if (line.kind != Stmt::Kind::kText || !line.defines.empty()) return false;
    for (const Piece& piece : line.pieces) {
      // A bare loop index is an address computation the lane buffers
      // would not cover.
      if (piece.kind == Piece::Kind::kIndex) return false;
      if (piece.kind != Piece::Kind::kElement) continue;
      if (piece.var != outer_iv || piece.lane != strip.induction_var ||
          !types.contains(piece.text)) {
        return false;
      }
      if (std::find(out.names.begin(), out.names.end(), piece.text) ==
          out.names.end()) {
        out.names.push_back(piece.text);
      }
      (piece.write ? out.written : out.read).insert(piece.text);
    }
  }
  return !out.names.empty();
}

/// Rewrites each qualifying strip-mined lane loop under `loop` to compute
/// through fixed-size local lane buffers:
///
///   int8_t ln0_src[16];  int8_t ln0_dst[16];
///   memcpy(ln0_src, &src[i], sizeof(ln0_src));      /* block copy in  */
///   for (int k = 0; k < 16; ++k)
///     ln0_dst[k] = ln0_src[k] * ...;                /* alias-free     */
///   memcpy(&dst[i], ln0_dst, sizeof(ln0_dst));      /* block copy out */
///
/// Two effects on the host compiler's code: the lane loop runs over distinct
/// locals with a constant trip count (no runtime alias checks, so it
/// vectorizes even under conservative -O2 cost models), and the shared
/// buffers are only ever touched by full-width block copies (scalar byte
/// stores between the surrounding vector loads/stores defeat store-to-load
/// forwarding).  The block copies carry the shared buffers' accesses, over
/// the same [i, i + lanes) footprint the lane loop covered.
void localize_strips_under(Stmt& loop, const ArrayTypes& types, int& next_id,
                           PassStats& stats) {
  for (std::size_t j = 0; j < loop.body.size(); ++j) {
    Stmt& child = loop.body[j];
    if (child.kind != Stmt::Kind::kLoop) continue;
    if (!child.strip_mined) {
      localize_strips_under(child, types, next_id, stats);
      continue;
    }
    if (child.begin != 0 || child.step != 1 || child.end <= 0) continue;
    StripArrays arrays;
    if (!collect_strip_arrays(child, loop.induction_var, types, arrays)) {
      continue;
    }
    const std::string prefix = "ln" + std::to_string(next_id++) + "_";
    const std::string lanes = std::to_string(child.end);
    std::vector<Stmt> before;
    std::vector<Stmt> after;
    for (const std::string& name : arrays.names) {
      const std::string& ctype = types.find(name)->second;
      Stmt decl = Stmt::line({Piece::literal(ctype + " "),
                              Piece::local(prefix + name),
                              Piece::literal("[" + lanes + "];")});
      decl.defines = prefix + name;
      before.push_back(std::move(decl));
    }
    for (const std::string& name : arrays.names) {
      const std::string tmp = prefix + name;
      if (arrays.read.contains(name)) {
        before.push_back(Stmt::line(
            {Piece::literal("memcpy("), Piece::buffer(tmp, true),
             Piece::literal(", &"),
             Piece::element(name, false, loop.induction_var),
             Piece::literal(", sizeof("), Piece::local(tmp),
             Piece::literal("));")}));
      }
      if (arrays.written.contains(name)) {
        after.push_back(Stmt::line(
            {Piece::literal("memcpy(&"),
             Piece::element(name, true, loop.induction_var),
             Piece::literal(", "), Piece::buffer(tmp, false),
             Piece::literal(", sizeof("), Piece::local(tmp),
             Piece::literal("));")}));
      }
    }
    for (Stmt& line : child.body) {
      for (Piece& piece : line.pieces) {
        if (piece.kind != Piece::Kind::kElement) continue;
        piece.text = prefix + piece.text;
        piece.var = child.induction_var;
        piece.lane.clear();
      }
    }
    loop.body.insert(loop.body.begin() + static_cast<std::ptrdiff_t>(j),
                     std::make_move_iterator(before.begin()),
                     std::make_move_iterator(before.end()));
    j += before.size();
    loop.body.insert(loop.body.begin() + static_cast<std::ptrdiff_t>(j + 1),
                     std::make_move_iterator(after.begin()),
                     std::make_move_iterator(after.end()));
    j += after.size();
    ++stats.strips_localized;
  }
}

bool has_strip_mined_child(const Stmt& stmt) {
  for (const Stmt& child : stmt.body) {
    if (child.kind == Stmt::Kind::kLoop &&
        (child.strip_mined || has_strip_mined_child(child))) {
      return true;
    }
  }
  return false;
}

void localize_strips(TranslationUnit& tu, PassStats& stats) {
  // Without a strip-mined lane loop (no cross-scale fusion happened) there
  // is nothing to localize, so skip collecting the lane types.
  if (std::none_of(tu.step.body.begin(), tu.step.body.end(),
                   has_strip_mined_child)) {
    return;
  }
  // The element type of every array a strip-mined body may index: static
  // buffers from their declarations, the step body's pointer locals from
  // their definitions.
  ArrayTypes types;
  for (const BufferDecl& decl : tu.buffers) types[decl.name] = decl.ctype;
  for (const Stmt& stmt : tu.step.body) {
    if (!stmt.array_ctype.empty()) types[stmt.defines] = stmt.array_ctype;
  }
  int next_id = 0;
  for (Stmt& stmt : tu.step.body) {
    if (stmt.kind == Stmt::Kind::kLoop) {
      localize_strips_under(stmt, types, next_id, stats);
    }
  }
}

/// "cgir.pass" fault action: deliberately breaks the IR so the after-pass
/// verifier (when installed) must catch it — the broken-pass drill of
/// docs/ROBUSTNESS.md.  Two guaranteed-detectable mutations: the first step
/// loop over-runs its domain by one, and a statement referencing an
/// undeclared buffer appears.
void corrupt_unit(TranslationUnit& tu) {
  Stmt broken = Stmt::line({Piece::element_at("hcg_injected", true, 0),
                           Piece::literal(" = 1;")});
  for (Stmt& stmt : tu.step.body) {
    if (stmt.kind == Stmt::Kind::kLoop) {
      stmt.end += 1;
      break;
    }
  }
  tu.step.body.push_back(std::move(broken));
}

void fuse_loops(TranslationUnit& tu, PassStats& stats) {
  fuse_same_shape(tu.step.body, stats);
}

/// Scalar loops only: a vector body keeps its intermediates in registers,
/// and a predicated body's masked loads and stores are not copies.
void forward_copies(TranslationUnit& tu, PassStats& stats) {
  for (Stmt& stmt : tu.step.body) {
    if (stmt.kind == Stmt::Kind::kLoop && !stmt.vector_loop &&
        !stmt.single_iteration && !stmt.predicated) {
      forward_scalar(stmt, stats);
    }
  }
}

/// One pass of the pipeline.
struct Pass {
  std::string_view name;  // checkpoint label, --dump-cgir-after value
  int min_opt_level;      // lowest -O level the pass runs at
  void (*run)(TranslationUnit&, PassStats&);
};

/// The pass pipeline, in run order (the table in passes.hpp).
#define HCG_PASS(fn, level) {#fn, level, fn}
constexpr Pass kPipeline[] = {
    HCG_PASS(fuse_loops, 1),
    HCG_PASS(fuse_cross_scale, 2),
    HCG_PASS(forward_copies, 2),
    HCG_PASS(reuse_arena, 0),
    HCG_PASS(localize_strips, 2),
};
#undef HCG_PASS

}  // namespace

PassStats run_passes(TranslationUnit& tu, const PassOptions& options) {
  PassStats stats;
  for (const Pass& pass : kPipeline) {
    if (options.opt_level < pass.min_opt_level) continue;
    Stopwatch timer;
    pass.run(tu, stats);
    stats.pass_times.push_back({pass.name, timer.elapsed_seconds() * 1e3});
    // The checkpoint (fault probe, after_pass hook) is not timed.
    if (faults::probe("cgir.pass", pass.name) != faults::Action::kNone) {
      corrupt_unit(tu);
    }
    if (options.after_pass) options.after_pass(pass.name, tu, stats);
  }
  return stats;
}

bool is_pass_name(std::string_view name) {
  return std::ranges::any_of(
      kPipeline, [&](const Pass& pass) { return pass.name == name; });
}

// ---------------------------------------------------------------------------
// Profiling instrumentation.
// ---------------------------------------------------------------------------

namespace {

/// Labels end up inside C string literals and JSON; rather than escaping,
/// restrict them to a charset that needs none in either context.
std::string prof_sanitize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '-' ||
                c == '.' || c == ',' || c == ' ' || c == '(' || c == ')' ||
                c == '[' || c == '+' || c == '*' || c == '/';
    out.push_back(safe ? c : '_');
  }
  return out;
}

long long loop_trips(const Stmt& loop) {
  if (loop.single_iteration) return 1;
  if (loop.step <= 0 || loop.end <= loop.begin) return 0;
  return (static_cast<long long>(loop.end) - loop.begin + loop.step - 1) /
         loop.step;
}

std::string loop_label(const Stmt& loop) {
  if (loop.banner_actors > 0) {
    std::string label = "batch_region(" + std::to_string(loop.banner_actors) +
                        " actors";
    if (!loop.banner_isa.empty()) label += ", " + loop.banner_isa;
    return prof_sanitize(label + ")");
  }
  return "loop(" + std::to_string(loop.begin) + ".." +
         std::to_string(loop.end) + " step " + std::to_string(loop.step) + ")";
}

constexpr std::string_view kIntensiveTagPrefix = "intensive:";

}  // namespace

std::vector<ProfileSite> instrument_profiling(TranslationUnit& tu,
                                              const ProfileOptions& options) {
  std::vector<ProfileSite> sites;
  std::vector<Stmt> rebuilt;
  rebuilt.reserve(tu.step.body.size());
  int loop_count = 0;
  int call_count = 0;
  for (Stmt& stmt : tu.step.body) {
    const bool is_loop = stmt.kind == Stmt::Kind::kLoop;
    const bool is_call =
        stmt.kind == Stmt::Kind::kText &&
        stmt.prof_tag.compare(0, kIntensiveTagPrefix.size(),
                              kIntensiveTagPrefix) == 0;
    if (!is_loop && !is_call) {
      rebuilt.push_back(std::move(stmt));
      continue;
    }
    ProfileSite site;
    if (is_loop) {
      site.id = "L" + std::to_string(loop_count++);
      site.kind = (stmt.vector_loop || stmt.single_iteration ||
                   stmt.predicated)
                      ? "vector"
                      : "scalar";
      site.label = loop_label(stmt);
      site.iters_per_call = loop_trips(stmt);
    } else {
      site.id = "I" + std::to_string(call_count++);
      site.kind = "intensive";
      site.label =
          prof_sanitize(stmt.prof_tag.substr(kIntensiveTagPrefix.size()));
      site.iters_per_call = 1;
    }
    const std::string idx = std::to_string(sites.size());
    rebuilt.push_back(Stmt::text_line("HCG_PROF_ENTER(" + idx + ");"));
    rebuilt.push_back(std::move(stmt));
    rebuilt.push_back(Stmt::text_line(
        "HCG_PROF_LEAVE(" + idx + ", " +
        std::to_string(site.iters_per_call) + ");"));
    sites.push_back(std::move(site));
  }
  tu.step.body = std::move(rebuilt);

  // The counter arrays must have at least one element even for a site-less
  // unit (zero-length arrays are not standard C); the dump loop still runs
  // HCG_PROF_SITES times, so a pad entry is never reported.
  const std::size_t array_len = sites.empty() ? 1 : sites.size();
  std::string ids;
  std::string kinds;
  std::string labels;
  for (const ProfileSite& site : sites) {
    if (!ids.empty()) {
      ids += ", ";
      kinds += ", ";
      labels += ", ";
    }
    ids += "\"" + site.id + "\"";
    kinds += "\"" + site.kind + "\"";
    labels += "\"" + site.label + "\"";
  }
  if (sites.empty()) {
    ids = kinds = labels = "\"\"";
  }

  auto add = [&](std::string line) {
    tu.header_lines.push_back(std::move(line));
  };
  const std::string len = std::to_string(array_len);
  add("");
  add("#ifdef HCG_PROF");
  add("#include <stdint.h>");
  add("#include <stdio.h>");
  add("#include <time.h>");
  add("#define HCG_PROF_SITES " + std::to_string(sites.size()));
  add("static uint64_t hcg_prof_ns[" + len + "];");
  add("static uint64_t hcg_prof_calls[" + len + "];");
  add("static uint64_t hcg_prof_iters[" + len + "];");
  add("static const char* const hcg_prof_site_id[" + len + "] = {" + ids +
      "};");
  add("static const char* const hcg_prof_site_kind[" + len + "] = {" + kinds +
      "};");
  add("static const char* const hcg_prof_site_label[" + len + "] = {" +
      labels + "};");
  add("#define HCG_PROF_CLOCK \"monotonic_ns\"");
  add("static inline uint64_t hcg_prof_now_ns(void) {");
  add("  struct timespec hcg_prof_ts;");
  add("  clock_gettime(CLOCK_MONOTONIC, &hcg_prof_ts);");
  add("  return (uint64_t)hcg_prof_ts.tv_sec * 1000000000u +");
  add("         (uint64_t)hcg_prof_ts.tv_nsec;");
  add("}");
  add("#define HCG_PROF_ENTER(idx) const uint64_t hcg_prof_t##idx = hcg_prof_now_ns()");
  add("#define HCG_PROF_LEAVE(idx, n) do { \\");
  add("    hcg_prof_ns[idx] += hcg_prof_now_ns() - hcg_prof_t##idx; \\");
  add("    hcg_prof_calls[idx] += 1u; \\");
  add("    hcg_prof_iters[idx] += (uint64_t)(n); \\");
  add("  } while (0)");
  add("int hcg_prof_dump(const char* path) {");
  add("  FILE* hcg_prof_file = fopen(path, \"w\");");
  add("  if (!hcg_prof_file) return -1;");
  add(R"(  fprintf(hcg_prof_file, "{\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"schema\": \"hcg-profile-v1\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"model\": \")" +
      prof_sanitize(options.model_name) + R"(\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"clock\": \"" HCG_PROF_CLOCK "\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"sites\": [");)");
  add("  for (int hcg_prof_s = 0; hcg_prof_s < HCG_PROF_SITES; ++hcg_prof_s) {");
  add(R"(    fprintf(hcg_prof_file, "%s\n    {\"id\": \"%s\", \"kind\": \"%s\", \"label\": \"%s\",",)");
  add("            hcg_prof_s ? \",\" : \"\", hcg_prof_site_id[hcg_prof_s],");
  add("            hcg_prof_site_kind[hcg_prof_s], hcg_prof_site_label[hcg_prof_s]);");
  add(R"(    fprintf(hcg_prof_file, " \"ns\": %llu, \"calls\": %llu, \"iters\": %llu}",)");
  add("            (unsigned long long)hcg_prof_ns[hcg_prof_s],");
  add("            (unsigned long long)hcg_prof_calls[hcg_prof_s],");
  add("            (unsigned long long)hcg_prof_iters[hcg_prof_s]);");
  add("  }");
  add(R"(  fprintf(hcg_prof_file, "\n  ]\n}\n");)");
  add("  return fclose(hcg_prof_file) == 0 ? 0 : -1;");
  add("}");
  add("#else");
  add("#define HCG_PROF_ENTER(idx)");
  add("#define HCG_PROF_LEAVE(idx, n)");
  add("#endif");

  return sites;
}

}  // namespace hcg::cgir
