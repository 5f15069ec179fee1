// Cooperative cancellation for long-running engine work.
//
// A CancellationSource owns a shared flag; any number of CancellationTokens
// observe it. The flag only ever goes false -> true, so a relaxed atomic
// load is enough and a checkpoint costs one cache read. Cancellation is
// cooperative: the engines poll at natural safepoints (once per
// interpolation iteration, once per sweep point), finish the state they are
// mutating, and stop by throwing CancelledError — nothing is interrupted
// mid-factorization, so caches and plans stay valid for the next request on
// the same handle. api::status_from_current_exception maps the throw to
// kCancelled.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

namespace symref::support {

/// Read side: cheap to copy, safe to share across threads. A
/// default-constructed token is never cancelled (the "no cancellation"
/// value every options struct defaults to).
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: cancel() trips every token handed out by this source.
/// Copying a source shares the flag. Thread-safe.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Thrown by cancellation checkpoints in value-returning call chains.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("operation cancelled") {}
};

}  // namespace symref::support
