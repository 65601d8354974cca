#include "runner/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace drn::runner::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;  // 32 chars always suffice for shortest round-trip doubles
  return std::string(buf.data(), end);
}

Writer& Writer::key(std::string_view k) {
  separate();
  raw("\"").raw(escape(k)).raw("\":");
  if (indent_ > 0) raw(" ");
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  separate();
  return raw("\"").raw(escape(v)).raw("\"");
}

Writer& Writer::value(double v) {
  separate();
  return raw(number(v));
}

Writer& Writer::value(std::uint64_t v) {
  separate();
  return raw(std::to_string(v));
}

Writer& Writer::value(std::int64_t v) {
  separate();
  return raw(std::to_string(v));
}

Writer& Writer::value(bool v) {
  separate();
  return raw(v ? "true" : "false");
}

Writer& Writer::null() {
  separate();
  return raw("null");
}

Writer& Writer::open(char bracket) {
  separate();
  os_ << bracket;
  has_element_.push_back(false);
  return *this;
}

Writer& Writer::close(char bracket) {
  const bool had_elements = !has_element_.empty() && has_element_.back();
  if (!has_element_.empty()) has_element_.pop_back();
  if (had_elements) newline_indent();
  os_ << bracket;
  return *this;
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;  // the value sits on the key's line
    return;
  }
  if (has_element_.empty()) return;  // top-level value
  if (has_element_.back()) os_ << ',';
  has_element_.back() = true;
  newline_indent();
}

void Writer::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < has_element_.size() * static_cast<std::size_t>(indent_); ++i)
    os_ << ' ';
}

Writer& Writer::raw(std::string_view text) {
  os_ << text;
  return *this;
}

}  // namespace drn::runner::json
