// Deterministic fault injection for exercising recovery paths.
//
// Robust serving code is only as good as its least-tested error branch.
// This registry lets tests and CI *force* those branches: a named fault
// site (a string literal at the injection point) fires with a configured
// probability, drawn from a per-site counter-based splitmix64 stream, so a
// given (site, probability, seed) triple injects the exact same faults on
// every run — chaos that reproduces.
//
// Configuration is a comma-separated spec, settable programmatically or via
// the REFGEN_FAULT environment variable (read once, lazily):
//
//   REFGEN_FAULT="lu_pivot:0.05:42,socket_io:0.01:7"
//
// Each entry is site:probability[:seed]. An empty spec disables everything.
// Known sites (grep for support::fault to find the hooks):
//
//   lu_alloc    SparseLu symbolic analysis throws std::bad_alloc
//   lu_pivot    SparseLu::refactor refuses the replay (pattern-ok path)
//   newton_step dc::replay_or_factor drops the Newton Jacobian plan before
//               one iterate's replay (.op and transient), forcing one fresh
//               factorization (the Newton analogue of lu_pivot)
//   json_parse  api::Json::parse fails with kParseError
//   work_queue  JobManager::run fails the attempt with kUnavailable
//   socket_io   daemon/tool socket send fails as if the peer vanished;
//               refgend's accept loop sees a transient error
//   store_io    support::BlobStore read/write fails
//
// The injector is process-global (faults must reach code that has no handle
// to pass one through) and thread-safe. should_fail is a single relaxed
// atomic load when no faults are armed — cheap enough for hot paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace symref::support {

class FaultInjector {
 public:
  struct SiteStats {
    std::string site;
    double probability = 0.0;
    std::uint64_t queries = 0;   ///< times should_fail consulted this site
    std::uint64_t injected = 0;  ///< times it answered "fail"
  };

  /// The process-wide injector. First access parses REFGEN_FAULT (if set).
  static FaultInjector& instance();

  /// Replace the armed sites with `spec` ("site:prob[:seed],..."). An empty
  /// spec disarms everything. Returns false (and explains in *error, when
  /// given) on a malformed spec; the previous configuration is kept.
  bool configure(const std::string& spec, std::string* error = nullptr);

  /// True when the named site should fail this time. Unknown or disarmed
  /// sites never fail. Deterministic per (site, seed): the k-th query of a
  /// site hashes (seed, k) and compares against the probability.
  [[nodiscard]] bool should_fail(const char* site) noexcept;

  /// Snapshot of every armed site's counters (for tests and telemetry).
  [[nodiscard]] std::vector<SiteStats> stats() const;

  /// Disarm all sites and zero the counters.
  void reset();

 private:
  FaultInjector() = default;
  struct Impl;
  static Impl& impl() noexcept;
};

/// Hook helper: `if (support::fault("lu_pivot")) return false;`
[[nodiscard]] bool fault(const char* site) noexcept;

}  // namespace symref::support
