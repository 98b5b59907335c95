#include "support/faults.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/strings.hpp"

namespace hcg::faults {

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative matcher with single-star backtracking: classic and linear for
  // the short patterns a fault spec contains.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

const std::vector<SiteInfo>& site_catalog() {
  // Single source of truth for the probe sites planted across the tree;
  // keep in sync with the per-site table in docs/ROBUSTNESS.md.  A test
  // scans the sources for probe literals, so adding a probe without a
  // catalog row (or the reverse) fails the suite.
  static const std::vector<SiteInfo> kSites = {
      {"analysis.range", "fuzz/differential",
       "model name", "any action corrupts the predicted intervals; the "
       "range-soundness cross-check must catch it"},
      {"cgir.pass", "cgir/passes",
       "pass name", "any action corrupts the IR after the pass runs"},
      {"fileio.write", "support/fileio",
       "destination path", "fail/throw error out; torn stops half-way"},
      {"precalc.measure", "synth/intensive",
       "implementation id", "candidate dropped (fail=compile, throw=crash, "
       "timeout=timeout)"},
      {"subprocess.spawn", "support/subprocess",
       "argv[0]", "any action simulates a transient spawn failure"},
      {"toolchain.compile", "toolchain/compiled_model",
       "model/tool", "fail/throw/torn fail the compile; timeout hangs it"},
  };
  return kSites;
}

std::string render_site_catalog() {
  std::string out = "fault probe sites (HCG_FAULTS=\"site[:keyglob]=fail|"
                    "throw|torn|timeout[@N|@N+]\"):\n";
  for (const SiteInfo& info : site_catalog()) {
    out += "  ";
    out += info.site;
    out.append(info.site.size() < 18 ? 18 - info.site.size() : 1, ' ');
    out += info.module;
    out.append(info.module.size() < 24 ? 24 - info.module.size() : 1, ' ');
    out += "key=";
    out += info.key;
    out += "\n";
    out += "                    ";
    out.append(24, ' ');
    out += info.actions;
    out += "\n";
  }
  return out;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

namespace {

Action parse_action(std::string_view name, std::string_view entry) {
  if (name == "fail") return Action::kFail;
  if (name == "throw") return Action::kThrow;
  if (name == "torn") return Action::kTorn;
  if (name == "timeout") return Action::kTimeout;
  throw ParseError("HCG_FAULTS: unknown action '" + std::string(name) +
                   "' in '" + std::string(entry) +
                   "' (fail|throw|torn|timeout)");
}

}  // namespace

void Registry::configure(std::string_view spec) {
  std::vector<std::unique_ptr<Rule>> parsed;
  for (const std::string& raw : split(spec, ',')) {
    const std::string_view entry = trim(raw);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ParseError("HCG_FAULTS: expected site=action in '" +
                       std::string(entry) + "'");
    }
    auto rule = std::make_unique<Rule>();

    std::string_view selector = trim(entry.substr(0, eq));
    const std::size_t colon = selector.find(':');
    if (colon != std::string_view::npos) {
      rule->key_glob = std::string(trim(selector.substr(colon + 1)));
      selector = trim(selector.substr(0, colon));
    }
    if (selector.empty()) {
      throw ParseError("HCG_FAULTS: empty site in '" + std::string(entry) +
                       "'");
    }
    rule->site_glob = std::string(selector);

    std::string_view action = trim(entry.substr(eq + 1));
    const std::size_t at = action.find('@');
    if (at != std::string_view::npos) {
      std::string_view occurrence = trim(action.substr(at + 1));
      if (!occurrence.empty() && occurrence.back() == '+') {
        rule->sticky = true;
        occurrence.remove_suffix(1);
      }
      const long long n = parse_int(occurrence);
      if (n < 1) {
        throw ParseError("HCG_FAULTS: occurrence must be >= 1 in '" +
                         std::string(entry) + "'");
      }
      rule->at = static_cast<std::uint64_t>(n);
      action = trim(action.substr(0, at));
    }
    rule->action = parse_action(action, entry);
    parsed.push_back(std::move(rule));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  rules_ = std::move(parsed);
  injected_.store(0, std::memory_order_relaxed);
  active_.store(!rules_.empty(), std::memory_order_relaxed);
}

void Registry::configure_from_env() {
  const char* env = std::getenv("HCG_FAULTS");
  std::string_view spec = env == nullptr ? std::string_view{}
                                         : std::string_view{env};
  if (spec == "list") {
    // Discoverability escape hatch: HCG_FAULTS=list prints the registered
    // probe sites on stderr (any hcg binary) and arms nothing, so sweeps
    // and docs can be checked against the live registry.
    std::fputs(render_site_catalog().c_str(), stderr);
    spec = {};
  }
  configure(spec);
}

void Registry::clear() { configure({}); }

Action Registry::consult(std::string_view site, std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  Action fired = Action::kNone;
  for (const std::unique_ptr<Rule>& rule : rules_) {
    if (!glob_match(rule->site_glob, site)) continue;
    if (!rule->key_glob.empty() && !glob_match(rule->key_glob, key)) continue;
    // Every matching rule counts the hit so nth-occurrence selectors stay
    // accurate even when an earlier rule already fired.
    const std::uint64_t hit =
        rule->hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fired != Action::kNone) continue;
    const bool due = rule->at == 0 ||
                     (rule->sticky ? hit >= rule->at : hit == rule->at);
    if (!due) continue;
    fired = rule->action;
  }
  if (fired != Action::kNone) {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return fired;
}

}  // namespace hcg::faults
