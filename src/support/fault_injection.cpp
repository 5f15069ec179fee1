#include "support/fault_injection.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "support/random.h"

namespace symref::support {

namespace {

/// Uniform double in [0, 1) from the top 53 bits.
double unit_draw(std::uint64_t seed, std::uint64_t counter) noexcept {
  const std::uint64_t bits = mix64(mix64(seed) ^ counter);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

struct Site {
  std::string name;
  double probability = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t queries = 0;
  std::uint64_t injected = 0;
};

}  // namespace

struct FaultInjector::Impl {
  std::atomic<bool> armed{false};
  mutable std::mutex mutex;
  std::vector<Site> sites;
};

FaultInjector::Impl& FaultInjector::impl() noexcept {
  static Impl instance;
  return instance;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    const char* spec = std::getenv("REFGEN_FAULT");
    if (spec != nullptr && *spec != '\0') injector.configure(spec);
  });
  return injector;
}

bool FaultInjector::configure(const std::string& spec, std::string* error) {
  std::vector<Site> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) {
      if (spec.empty()) break;  // empty spec: disarm
      if (error != nullptr) *error = "empty fault entry in '" + spec + "'";
      return false;
    }
    Site site;
    const std::size_t first = entry.find(':');
    if (first == std::string::npos || first == 0) {
      if (error != nullptr) *error = "expected site:prob[:seed], got '" + entry + "'";
      return false;
    }
    site.name = entry.substr(0, first);
    std::size_t second = entry.find(':', first + 1);
    const std::string prob_text =
        entry.substr(first + 1, (second == std::string::npos ? entry.size() : second) - first - 1);
    try {
      std::size_t used = 0;
      site.probability = std::stod(prob_text, &used);
      if (used != prob_text.size()) throw std::invalid_argument(prob_text);
      if (second != std::string::npos) {
        const std::string seed_text = entry.substr(second + 1);
        site.seed = std::stoull(seed_text, &used);
        if (used != seed_text.size()) throw std::invalid_argument(seed_text);
      }
    } catch (const std::exception&) {
      if (error != nullptr) *error = "bad probability/seed in '" + entry + "'";
      return false;
    }
    if (!(site.probability >= 0.0) || !(site.probability <= 1.0)) {
      if (error != nullptr) *error = "probability out of [0,1] in '" + entry + "'";
      return false;
    }
    parsed.push_back(std::move(site));
  }
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.sites = std::move(parsed);
  state.armed.store(!state.sites.empty(), std::memory_order_release);
  return true;
}

bool FaultInjector::should_fail(const char* site) noexcept {
  Impl& state = impl();
  if (!state.armed.load(std::memory_order_acquire)) return false;
  const std::lock_guard<std::mutex> lock(state.mutex);
  for (Site& armed : state.sites) {
    if (armed.name != site) continue;
    ++armed.queries;
    const bool fail = unit_draw(armed.seed, armed.queries) < armed.probability;
    if (fail) ++armed.injected;
    return fail;
  }
  return false;
}

std::vector<FaultInjector::SiteStats> FaultInjector::stats() const {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<SiteStats> out;
  out.reserve(state.sites.size());
  for (const Site& site : state.sites) {
    out.push_back({site.name, site.probability, site.queries, site.injected});
  }
  return out;
}

void FaultInjector::reset() {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.sites.clear();
  state.armed.store(false, std::memory_order_release);
}

bool fault(const char* site) noexcept { return FaultInjector::instance().should_fail(site); }

}  // namespace symref::support
