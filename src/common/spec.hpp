// Spec — the one strict parser behind every `[mode,]key=value,...` policy
// variable (DOOC_FAULTS, _JOBS, _CODEC, _TELEMETRY, _REPLICATION), and the
// value rules Options applies to `--key=value`. docs/OPERATIONS.md ("Spec
// grammar") states the rules. Env input is hostile: every failure throws
// InvalidArgument("<VAR>: <key> ..."), and finish() rejects any token no
// reader consumed.
#pragma once

#include <charconv>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dooc {

class Spec {
 public:
  template <class T>
  using Choices = std::initializer_list<std::pair<std::string_view, T>>;
  template <class T>
  using Bound = std::type_identity_t<T>;

  /// getenv(var), or "" when unset.
  static std::string env(const char* var);

  /// Tokenize `text`; `var` prefixes every error. Throws on an empty key.
  Spec(std::string var, std::string_view text);

  /// Readers leave `out` unchanged when the key is absent; a repeated key
  /// yields its last value. read_mode reads a bare (no '=') first token.
  template <class T>
  void read_mode(T& out, Choices<T> choices) {
    if (tokens_.empty() || !tokens_[0].key.empty()) return;
    out = to_choice(tokens_[0].value, what("mode"), choices);
    tokens_[0].read = true;
  }
  template <class T>
  void read_choice(std::string_view key, T& out, Choices<T> choices) {
    if (const auto v = last(key)) out = to_choice(*v, what(key), choices);
  }
  template <class T>
  void read_int(std::string_view key, T& out, Bound<T> lo = std::numeric_limits<T>::min(),
                Bound<T> hi = std::numeric_limits<T>::max()) {
    if (const auto v = last(key)) out = to_int<T>(*v, what(key), lo, hi);
  }
  void read_float(std::string_view key, double& out, double lo, double hi) {
    if (const auto v = last(key)) out = to_float(*v, what(key), lo, hi);
  }
  void read_bool(std::string_view key, bool& out) {
    if (const auto v = last(key)) out = to_bool(*v, what(key));
  }
  void read_seconds(std::string_view key, double& out) {
    if (const auto v = last(key)) out = to_seconds(*v, what(key));
  }

  /// Raw values of `key`, in order (repeatable and compound keys).
  std::vector<std::string> values(std::string_view key);
  std::optional<std::string> last(std::string_view key);
  /// Split a compound value at the first `sep`; throws naming `form`.
  [[nodiscard]] std::pair<std::string_view, std::string_view> split(
      std::string_view key, std::string_view value, char sep, const char* form) const;
  /// Throw for the first token no reader consumed: an unknown key, or a
  /// bare token that is not a mode.
  void finish() const;
  /// "<VAR>: <key>", the prefix of every error about `key`.
  std::string what(std::string_view key) const { return var_ + ": " + std::string(key); }

  // Value rules; `what` names the value in the error ("--nodes").
  template <class T>
  static T to_int(std::string_view text, const std::string& what,
                  Bound<T> lo = std::numeric_limits<T>::min(),
                  Bound<T> hi = std::numeric_limits<T>::max()) {
    const std::string_view digits = skip_plus(text);
    const char* end = digits.data() + digits.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
    if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
    const bool any = std::is_signed_v<T> && lo == std::numeric_limits<T>::min() &&
                     hi == std::numeric_limits<T>::max();
    reject(what, any ? std::string("an integer")
                     : "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]",
           text);
  }
  static double to_float(std::string_view text, const std::string& what,
                         double lo = std::numeric_limits<double>::lowest(),
                         double hi = std::numeric_limits<double>::max());
  static bool to_bool(std::string_view text, const std::string& what);
  static double to_seconds(std::string_view text, const std::string& what);
  template <class T>
  static T to_choice(std::string_view text, const std::string& what, Choices<T> choices) {
    std::string names;
    for (const auto& [name, value] : choices) {
      if (name == text) return value;
      names += (names.empty() ? "" : "|") + std::string(name);
    }
    reject(what, names, text);
  }

 private:
  /// Throw InvalidArgument("<what> wants <wants>, got '<text>'").
  [[noreturn]] static void reject(const std::string& what, const std::string& wants,
                                  std::string_view text);
  /// Drop one leading '+' before a digit or '.' (from_chars refuses it).
  static std::string_view skip_plus(std::string_view s);

  struct Token {
    std::string key;  ///< empty for a bare token
    std::string value;
    bool read = false;
  };
  std::string var_;
  std::vector<Token> tokens_;
};

}  // namespace dooc
