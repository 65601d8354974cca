// A minimal JSON writer — no external dependencies, deterministic output.
//
// Determinism matters here: sweep results written with --jobs 1 and --jobs 8
// must be byte-identical, so doubles are rendered with std::to_chars
// (shortest round-trip form, locale-independent) and the caller controls key
// order. Non-finite doubles, which JSON cannot represent, are written as
// null.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace drn::runner::json {

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes): backslash, quote, and control characters become \", \\, \n, ...
/// or \u00XX.
[[nodiscard]] std::string escape(std::string_view s);

/// Renders a double exactly as the writer does: shortest round-trip decimal
/// via std::to_chars, "null" for NaN/inf.
[[nodiscard]] std::string number(double v);

/// Streaming writer. Usage:
///
///   json::Writer w(os);
///   w.begin_object();
///   w.key("stations").value(std::uint64_t{40});
///   w.key("macs").begin_array().value("scheme").value("aloha").end_array();
///   w.end_object();
///
/// The writer inserts commas and (when indent > 0) newlines/indentation; it
/// does not validate that keys appear only inside objects.
class Writer {
 public:
  explicit Writer(std::ostream& os, int indent = 2) : os_(os), indent_(indent) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(double v);
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& value(bool v);
  Writer& null();

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// Comma/newline bookkeeping before a value or key is emitted.
  void separate();
  void newline_indent();
  Writer& raw(std::string_view text);

  std::ostream& os_;
  int indent_;
  // One entry per open container: whether it has emitted an element yet.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace drn::runner::json
