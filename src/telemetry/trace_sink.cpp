#include "telemetry/trace_sink.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh {

JsonlTraceSink::JsonlTraceSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    throw IoError("cannot open trace output file: " + path);
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::write(const TraceRecord& record) {
  const std::string line = to_json_line(record);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++lines_;
}

void JsonlTraceSink::flush() { std::fflush(file_); }

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // NaN/inf are not JSON
  out += strf("%.17g", v);
}

template <typename Map, typename AppendValue>
void append_object(std::string& out, const char* key, const Map& map,
                   AppendValue append_value) {
  append_json_string(out, key);
  out += ":{";
  bool first = true;
  for (const auto& [k, v] : map) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, k);
    out.push_back(':');
    append_value(out, v);
  }
  out.push_back('}');
}

// --- minimal recursive-descent parser for the trace schema -------------
//
// Grammar actually accepted: an object whose values are numbers or
// one-level-deep objects of string → number. This covers every line the
// JSONL sink can produce while staying ~100 lines and dependency-free.

class MiniJsonParser {
 public:
  explicit MiniJsonParser(std::string_view text) : text_(text) {}

  TraceRecord parse() {
    TraceRecord record;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return record;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (peek() == '{') {
        parse_nested(key, record);
      } else {
        const double v = parse_number();
        if (key == "step") {
          record.step = static_cast<int>(v);
        }  // other scalar keys are ignored (forward compatibility)
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON object");
    return record;
  }

 private:
  void parse_nested(const std::string& section, TraceRecord& record) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const double v = parse_number();
      if (section == "phase_ms") {
        record.phase_ms[key] = v;
      } else if (section == "phase_count") {
        record.phase_count[key] = static_cast<long long>(v);
      } else if (section == "counters") {
        record.counters[key] = static_cast<long long>(v);
      } else if (section == "gauges") {
        record.gauges[key] = v;
      }  // unknown sections are parsed but dropped
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            out.push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16)));
            break;
          }
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    return parse_double(text_.substr(start, pos_ - start), "trace number");
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(strf("expected '%c'", c));
    }
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw IoError(strf("trace line parse error at byte %zu: %s", pos_,
                       why.c_str()));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_json_line(const TraceRecord& record) {
  std::string out;
  out.reserve(128 + 32 * (record.phase_ms.size() + record.counters.size() +
                          record.gauges.size()));
  out.push_back('{');
  out += strf("\"step\":%d", record.step);
  out.push_back(',');
  append_object(out, "phase_ms", record.phase_ms,
                [](std::string& o, double v) { append_number(o, v); });
  out.push_back(',');
  append_object(out, "phase_count", record.phase_count,
                [](std::string& o, long long v) { o += strf("%lld", v); });
  out.push_back(',');
  append_object(out, "counters", record.counters,
                [](std::string& o, long long v) { o += strf("%lld", v); });
  out.push_back(',');
  append_object(out, "gauges", record.gauges,
                [](std::string& o, double v) { append_number(o, v); });
  out.push_back('}');
  return out;
}

TraceRecord parse_trace_line(std::string_view line) {
  return MiniJsonParser(line).parse();
}

}  // namespace megh
