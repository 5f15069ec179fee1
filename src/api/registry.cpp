#include "api/registry.h"

#include <algorithm>
#include <utility>

namespace symref::api {

std::string Registry::add(CircuitHandle handle, std::string content_key) {
  if (!handle.valid()) return {};
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string id = std::string("c").append(std::to_string(++next_));
  entries_.push_back(Entry{id, std::move(handle), std::move(content_key)});
  return id;
}

Result<CircuitHandle> Registry::get(std::string_view id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.id == id) return entry.handle;
  }
  return Status::error(StatusCode::kNotFound,
                       "unknown circuit_id \"" + std::string(id) + "\"");
}

std::string Registry::content_key(std::string_view id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.id == id) return entry.content_key;
  }
  return {};
}

std::vector<Registry::Entry> Registry::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

bool Registry::evict(std::string_view id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& entry) { return entry.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace symref::api
