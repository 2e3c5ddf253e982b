// Minimal streaming JSON writer for machine-readable reports.
//
// Just enough for the sweep report and the observability exports: nested
// objects/arrays, string escaping, and *deterministic* number formatting
// ("%.10g") so two reports built from identical data are byte-identical —
// the property the thread-count invariance test diffs on.
//
// Lives in obs (the lowest shared reporting layer) so both the trace/metrics
// exporters and the sweep runner emit through the same writer.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace smn::obs {

class JsonWriter {
 public:
  void begin_object() {
    comma();
    out_ += '{';
    fresh_.push_back(true);
  }
  void end_object() {
    out_ += '}';
    fresh_.pop_back();
  }
  void begin_array() {
    comma();
    out_ += '[';
    fresh_.push_back(true);
  }
  void end_array() {
    out_ += ']';
    fresh_.pop_back();
  }

  /// Emits `"k":`; the next value call supplies the payload.
  void key(std::string_view k) {
    comma();
    quote(k);
    out_ += ':';
    pending_key_ = true;
  }

  void value(std::string_view s) {
    comma();
    quote(s);
  }
  void value(const char* s) { value(std::string_view{s}); }
  void value(bool b) {
    comma();
    out_ += b ? "true" : "false";
  }
  void value(double d) {
    comma();
    if (!std::isfinite(d)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", d);
    out_ += buf;
  }
  void value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
  }
  void value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
  }
  void value(int v) {
    comma();
    out_ += std::to_string(v);
  }

  /// Convenience: key + value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

  /// 16-hex-digit rendering for trace hashes (JSON numbers lose 64-bit ints).
  [[nodiscard]] static std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
  }

 private:
  // Inserts the separating comma unless this is the first element of the
  // enclosing aggregate or the payload of a just-written key.
  void comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!fresh_.empty()) {
      if (!fresh_.back()) out_ += ',';
      fresh_.back() = false;
    }
  }

  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> fresh_;  // per open aggregate: no element written yet
  bool pending_key_ = false;
};

}  // namespace smn::obs
