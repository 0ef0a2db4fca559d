#include "common/spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace dooc {

namespace {

std::string_view trim(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t");
  return b == std::string_view::npos ? std::string_view{}
                                     : s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Whole-string finite float: no whitespace, hex, inf or nan.
bool parse_finite(std::string_view text, double& v) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  return ec == std::errc{} && ptr == end && std::isfinite(v);
}

}  // namespace

std::string Spec::env(const char* var) {
  const char* value = std::getenv(var);
  return value != nullptr ? value : "";
}

Spec::Spec(std::string var, std::string_view text) : var_(std::move(var)) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view tok = trim(text.substr(0, comma));
    text = comma == std::string_view::npos ? std::string_view{} : text.substr(comma + 1);
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      tokens_.push_back({"", std::string(tok)});
    } else if (const std::string_view key = trim(tok.substr(0, eq)); key.empty()) {
      throw InvalidArgument(var_ + ": empty key in '" + std::string(tok) + "'");
    } else {
      tokens_.push_back({std::string(key), std::string(trim(tok.substr(eq + 1)))});
    }
  }
}

std::vector<std::string> Spec::values(std::string_view key) {
  std::vector<std::string> out;
  for (Token& t : tokens_) {
    if (t.key != key) continue;
    t.read = true;
    out.push_back(t.value);
  }
  return out;
}

std::optional<std::string> Spec::last(std::string_view key) {
  std::vector<std::string> all = values(key);
  if (all.empty()) return std::nullopt;
  return std::move(all.back());
}

std::pair<std::string_view, std::string_view> Spec::split(std::string_view key,
                                                          std::string_view value, char sep,
                                                          const char* form) const {
  const std::size_t at = value.find(sep);
  if (at == std::string_view::npos) reject(what(key), form, value);
  return {value.substr(0, at), value.substr(at + 1)};
}

void Spec::finish() const {
  for (const Token& t : tokens_) {
    if (t.read) continue;
    throw InvalidArgument(var_ + (t.key.empty() ? ": expected key=value, got '" + t.value
                                                : ": unknown key '" + t.key) + "'");
  }
}

double Spec::to_float(std::string_view text, const std::string& what, double lo, double hi) {
  double v = 0.0;
  if (!parse_finite(skip_plus(text), v) || v < lo || v > hi) {
    reject(what, "a finite float in [" + fmt(lo) + ", " + fmt(hi) + "]", text);
  }
  return v;
}

bool Spec::to_bool(std::string_view text, const std::string& what) {
  return to_choice<bool>(text, what, {{"true", true}, {"false", false}, {"1", true},
                                      {"0", false}, {"yes", true}, {"no", false}});
}

double Spec::to_seconds(std::string_view text, const std::string& what) {
  static constexpr std::pair<std::string_view, double> kUnits[] = {
      {"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1.0}};
  std::string_view number = text;
  double scale = 1e-3;  // a bare number is milliseconds
  for (const auto& [unit, s] : kUnits) {
    if (text.size() >= unit.size() && text.substr(text.size() - unit.size()) == unit) {
      number = text.substr(0, text.size() - unit.size());
      scale = s;
      break;
    }
  }
  double v = 0.0;
  if (!parse_finite(skip_plus(number), v) || v < 0.0) {
    reject(what, "a duration >= 0 with an ns|us|ms|s suffix", text);
  }
  return v * scale;
}

void Spec::reject(const std::string& what, const std::string& wants, std::string_view text) {
  throw InvalidArgument(what + " wants " + wants + ", got '" + std::string(text) + "'");
}

std::string_view Spec::skip_plus(std::string_view s) {
  const bool digit = s.size() > 1 && ((s[1] >= '0' && s[1] <= '9') || s[1] == '.');
  return digit && s[0] == '+' ? s.substr(1) : s;
}

}  // namespace dooc
