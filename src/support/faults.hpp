// Deterministic fault injection for robustness testing (docs/ROBUSTNESS.md).
//
// Production code plants *probes* at the places that can fail in the wild —
// file writes, compiler invocations, candidate measurements — and the test
// (or the HCG_FAULTS environment variable) arms a registry of rules
// describing which probes must misbehave and how:
//
//   HCG_FAULTS="toolchain.compile=fail@2,fileio.write=torn,precalc.measure=throw"
//
// Rule grammar (comma-separated entries):
//
//   entry      := site [':' keyglob] '=' action ['@' occurrence]
//   site       := glob over the probe's site name ("toolchain.compile", ...)
//   keyglob    := glob over the probe's key (an impl id, a file path, ...)
//   action     := fail | throw | torn | timeout
//   occurrence := N    fire only on the Nth matching hit (1-based)
//               | N+   fire on the Nth and every later hit
//
// Globs support '*' (any run) and '?' (any one character).  Without '@' a
// rule fires on every matching hit.  What each action *means* is decided by
// the probe site; see the per-site table in docs/ROBUSTNESS.md.
//
// The registry costs one relaxed atomic load per probe when no faults are
// armed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace hcg::faults {

/// What an armed probe should do.  kNone means "behave normally".
enum class Action : std::uint8_t {
  kNone,
  kFail,     // report failure through the site's normal error channel
  kThrow,    // throw FaultInjected (a simulated crash)
  kTorn,     // fileio: stop half-way through the write (a simulated power cut)
  kTimeout,  // pretend the operation exceeded its deadline
};

/// Thrown by probe sites executing a `throw` action.  Derives from
/// hcg::Error so the library's normal error handling sees it.
class FaultInjected : public Error {
 public:
  using Error::Error;
};

/// Glob match with '*' and '?' (no character classes).
bool glob_match(std::string_view pattern, std::string_view text);

/// Static description of one probe site.  The catalog below is the single
/// source of truth for which sites exist: `hcgc faults` and HCG_FAULTS=list
/// render it, the fuzz harness sweeps it (docs/FUZZING.md), and a test
/// scans the sources for probe()/raise_if_armed() literals to prove the
/// catalog cannot drift from the call sites.
struct SiteInfo {
  std::string_view site;     // probe name, e.g. "toolchain.compile"
  std::string_view module;   // source module that plants the probe
  std::string_view key;      // what the rule's key glob matches against
  std::string_view actions;  // actions the site honors and their meaning
};

/// Every registered probe site, sorted by site name.
const std::vector<SiteInfo>& site_catalog();

/// Human-readable catalog table (the `hcgc faults` / HCG_FAULTS=list text).
std::string render_site_catalog();

class Registry {
 public:
  /// The process-wide registry; the first call arms it from HCG_FAULTS.
  static Registry& instance();

  /// Replaces the armed rule set.  Throws hcg::ParseError on bad grammar.
  void configure(std::string_view spec);

  /// Re-arms from the HCG_FAULTS environment variable (empty/unset clears).
  void configure_from_env();

  /// Disarms everything and resets the occurrence counters.
  void clear();

  /// True when at least one rule is armed (single relaxed load).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Consults the armed rules for a probe hit.  Every matching rule counts
  /// the hit; the first rule whose occurrence selector fires decides the
  /// action.  kNone when nothing fires.
  Action consult(std::string_view site, std::string_view key);

  /// Total probe hits that fired an action since the last configure/clear.
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  Registry() { configure_from_env(); }

  struct Rule {
    std::string site_glob;
    std::string key_glob;  // empty: match any key
    Action action = Action::kNone;
    std::uint64_t at = 0;  // 0: every occurrence; N: see sticky
    bool sticky = false;   // true: fire from occurrence `at` onward
    std::atomic<std::uint64_t> hits{0};
  };

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Rule>> rules_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> injected_{0};
};

/// The probe call sites use: "which fault, if any, is armed for me now?"
inline Action probe(std::string_view site, std::string_view key = {}) {
  Registry& registry = Registry::instance();
  if (!registry.active()) return Action::kNone;
  return registry.consult(site, key);
}

/// Convenience for sites with a single failure mode: any armed action is a
/// thrown FaultInjected.
inline void raise_if_armed(std::string_view site, std::string_view key = {}) {
  if (probe(site, key) != Action::kNone) {
    throw FaultInjected("injected fault at " + std::string(site) +
                        (key.empty() ? "" : " [" + std::string(key) + "]"));
  }
}

}  // namespace hcg::faults
