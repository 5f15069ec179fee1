// Strict decoding of JSON wire objects from one member list per type.
//
// Every wire type has one `schema(io, value)` function that names each
// member once (api/serialize.cpp). It is templated on direction: the
// encoder there writes the members in schema order, and the Decoder below
// reads, type-checks and requires them, then rejects every member the
// schema did not name. Encoding, strict decoding and the request cache key
// therefore come from the same list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"
#include "api/serialize.h"
#include "api/status.h"

namespace symref::api::wire {

enum class Need {
  kOptional,  // absent keeps the member's default
  kRequired,  // absent fails
  kNonEmpty,  // arrays: present and not empty
  kPositive,  // integers: absent keeps the default, present must be in [1, INT_MAX]
};

/// One wire token of an enum member.
template <typename E>
struct Token {
  const char* name;
  E value;
};

class Decoder {
 public:
  /// Decodes the members of `json`, which must be an object. Every failure
  /// reads "<what>: ..." and fails with kInvalidArgument.
  Decoder(const Json& json, const char* what);

  void field(const char* key, double& member, Need need = Need::kOptional);
  /// Integer-valued numbers in int range.
  void field(const char* key, int& member, Need need = Need::kOptional);
  void field(const char* key, bool& member, Need need = Need::kOptional);
  void field(const char* key, std::string& member, Need need = Need::kOptional);
  /// Non-negative integers up to 2^53, the largest a JSON number holds
  /// exactly.
  void field(const char* key, std::uint64_t& member, Need need = Need::kOptional);

  /// A string member naming one of `tokens`.
  template <typename E, std::size_t N>
  void choice(const char* key, E& member, const Token<E> (&tokens)[N],
              Need need = Need::kOptional) {
    const Json* value = find(key, need);
    if (value == nullptr) return;
    if (!value->is_string()) return fail(key, "must be a string");
    for (const Token<E>& token : tokens) {
      if (value->as_string() == token.name) {
        member = token.value;
        return;
      }
    }
    std::string expected;
    for (std::size_t i = 0; i < N; ++i) {
      expected += (i == 0 ? "" : i + 1 == N ? " or " : ", ") + std::string(tokens[i].name);
    }
    fail("unknown " + std::string(key) + " \"" + value->as_string() + "\" (expected " +
         expected + ")");
  }

  /// A nested object decoded by its own schema; its failures read
  /// "<key>: ...".
  template <typename T>
  void object(const char* key, T& member, Need need = Need::kOptional) {
    const Json* value = find(key, need);
    if (value == nullptr) return;
    Decoder inner(*value, key);
    schema(inner, member);
    adopt(inner.finish());
  }

  /// An array of objects, each decoded by its own schema; their failures
  /// read "<what>: ...".
  template <typename T>
  void objects(const char* key, std::vector<T>& items, const char* what,
               Need need = Need::kOptional) {
    const Json* value = find(key, need);
    if (value == nullptr) return;
    if (!value->is_array()) return fail(key, "must be an array");
    if (need == Need::kNonEmpty && value->items().empty()) {
      return fail(key, "must be a non-empty array");
    }
    for (const Json& entry : value->items()) {
      Decoder inner(entry, what);
      T item;
      schema(inner, item);
      if (!adopt(inner.finish())) return;
      items.push_back(std::move(item));
    }
  }

  /// A legacy member: accepted with any value, and ignored.
  void ignored(const char* key) { named_.push_back(key); }

  /// The first failure, else an unknown-key failure for the first member no
  /// call above named, else ok.
  [[nodiscard]] Status finish();

 private:
  /// Records `key` as named. Returns its value, or nullptr when it is
  /// absent (a failure if `need` requires it) or an earlier call failed.
  const Json* find(const char* key, Need need);
  /// An integer-valued number in [low, high], or in [1, INT_MAX] for
  /// kPositive; false when absent or failed.
  bool integer(const char* key, Need need, double low, double high, double* out);
  void fail(const char* key, const char* message);
  void fail(std::string message);
  /// Takes over a nested failure; false when there was one.
  bool adopt(Status status);

  const Json& json_;
  const char* what_;
  std::vector<const char*> named_;
  Status status_;
};

/// A whole request: "type", then the members of the type it names. Lets
/// Decoder::object decode a request nested in another object.
void schema(Decoder& in, AnyRequest& request);

}  // namespace symref::api::wire
