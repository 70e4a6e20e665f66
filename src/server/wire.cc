#include "server/wire.h"

#include <cstdio>
#include <cstring>

namespace dynview {

namespace {
/// Parser hard limits: a frame already bounds total size, these bound shape
/// (a 4 MiB frame of nothing but '[' must not recurse 4M deep).
constexpr int kMaxDepth = 64;
}  // namespace

// --- Frames ----------------------------------------------------------------

std::string EncodeFrame(const std::string& payload) {
  std::string out(kFrameHeaderBytes, '\0');
  out += payload;
  PatchFrameHeader(&out);
  return out;
}

void PatchFrameHeader(std::string* frame) {
  const size_t n = frame->size() - kFrameHeaderBytes;
  for (size_t b = 0; b < kFrameHeaderBytes; ++b) {
    (*frame)[b] = static_cast<char>((n >> (8 * b)) & 0xff);
  }
}

Status FrameDecoder::Feed(const char* data, size_t len) {
  if (broken_) return error_;
  buf_.append(data, len);
  // Only the first complete header can be checked cheaply (later ones shift
  // as frames pop), but it is the one that matters: Next() never pops past
  // a poisoned header.
  DeclaredLength();
  return broken_ ? error_ : Status::OK();
}

bool FrameDecoder::Next(std::string* out) {
  const size_t n = DeclaredLength();
  if (n == kNoFrame || buf_.size() < kFrameHeaderBytes + n) return false;
  out->assign(buf_, kFrameHeaderBytes, n);
  buf_.erase(0, kFrameHeaderBytes + n);
  return true;
}

size_t FrameDecoder::DeclaredLength() {
  if (broken_ || buf_.size() < kFrameHeaderBytes) return kNoFrame;
  size_t n = 0;
  for (size_t b = 0; b < kFrameHeaderBytes; ++b) {
    n |= static_cast<size_t>(static_cast<uint8_t>(buf_[b])) << (8 * b);
  }
  if (n <= max_) return n;
  broken_ = true;
  error_ = Status::ResourceExhausted("frame declares " + std::to_string(n) +
                                     " bytes > max " + std::to_string(max_));
  return kNoFrame;
}

// --- JSON model ------------------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return def;
  if (v->kind == Kind::kInt) return v->i;
  if (v->kind == Kind::kDouble) return static_cast<int64_t>(v->d);
  return def;
}

double JsonValue::GetDouble(const std::string& key, double def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return def;
  if (v->kind == Kind::kDouble) return v->d;
  if (v->kind == Kind::kInt) return static_cast<double>(v->i);
  return def;
}

bool JsonValue::GetBool(const std::string& key, bool def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->b : def;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->s : def;
}

// --- JSON parser -----------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : t_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    DV_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != t_.size()) return Err("trailing bytes after document");
    return v;
  }

 private:
  Status Err(const std::string& what) {
    return Status::ParseError("json: " + what + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < t_.size()) {
      char c = t_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < t_.size() && t_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= t_.size()) return Err("unexpected end of input");
    char c = t_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->s);
      case 't':
        if (t_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          out->kind = JsonValue::Kind::kBool;
          out->b = true;
          return Status::OK();
        }
        return Err("bad literal");
      case 'f':
        if (t_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          out->kind = JsonValue::Kind::kBool;
          out->b = false;
          return Status::OK();
        }
        return Err("bad literal");
      case 'n':
        if (t_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return Status::OK();
        }
        return Err("bad literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Err(std::string("unexpected character '") + c + "'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      if (pos_ >= t_.size() || t_[pos_] != '"') return Err("expected key");
      std::string key;
      DV_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      JsonValue v;
      DV_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      out->fields.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      SkipWs();
      JsonValue v;
      DV_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      out->items.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    for (;;) {
      if (pos_ >= t_.size()) return Err("unterminated string");
      char c = t_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= t_.size()) return Err("unterminated escape");
      char e = t_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          DV_RETURN_IF_ERROR(ParseHex4(&cp));
          // Surrogate pair?
          if (cp >= 0xd800 && cp <= 0xdbff && pos_ + 1 < t_.size() &&
              t_[pos_] == '\\' && t_[pos_ + 1] == 'u') {
            pos_ += 2;
            uint32_t lo = 0;
            DV_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo >= 0xdc00 && lo <= 0xdfff) {
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else {
              return Err("invalid low surrogate");
            }
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Err("bad escape");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > t_.size()) return Err("truncated \\u escape");
    uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      char c = t_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Err("bad hex digit");
      }
    }
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < t_.size() && t_[pos_] >= '0' && t_[pos_] <= '9') ++pos_;
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < t_.size() && t_[pos_] >= '0' && t_[pos_] <= '9') ++pos_;
    }
    if (pos_ < t_.size() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < t_.size() && (t_[pos_] == '+' || t_[pos_] == '-')) ++pos_;
      while (pos_ < t_.size() && t_[pos_] >= '0' && t_[pos_] <= '9') ++pos_;
    }
    std::string num = t_.substr(start, pos_ - start);
    if (num.empty() || num == "-") return Err("bad number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = strtoll(num.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out->kind = JsonValue::Kind::kInt;
        out->i = static_cast<int64_t>(v);
        out->d = static_cast<double>(v);
        return Status::OK();
      }
      // Fall through to double on int64 overflow.
    }
    errno = 0;
    char* end = nullptr;
    double d = strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("bad number");
    out->kind = JsonValue::Kind::kDouble;
    out->d = d;
    out->i = static_cast<int64_t>(d);
    return Status::OK();
  }

  const std::string& t_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonParse(const std::string& text) {
  return Parser(text).Parse();
}

// --- JSON writer -----------------------------------------------------------

void JsonEscapeTo(std::string& out, std::string_view s) {
  size_t run = 0;  // Start of the pending run of bytes that need no escape.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char* hex = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void JsonWriter::Comma() {
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Comma();
  out_.push_back(bracket);
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_.push_back(bracket);
  need_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginObject() { return Open('{'); }
JsonWriter& JsonWriter::EndObject() { return Close('}'); }
JsonWriter& JsonWriter::BeginArray() { return Open('['); }
JsonWriter& JsonWriter::EndArray() { return Close(']'); }

JsonWriter& JsonWriter::Key(const std::string& key) {
  Comma();
  out_.push_back('"');
  JsonEscapeTo(out_, key);
  out_ += "\":";
  // The value after a key must not emit a comma of its own: its Comma()
  // sees false (skips), then sets it back to true for the next field.
  need_comma_.back() = false;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  Comma();
  out_.push_back('"');
  JsonEscapeTo(out_, v);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return Raw(buf);
}

JsonWriter& JsonWriter::Int(int64_t v) { return Raw(std::to_string(v)); }
JsonWriter& JsonWriter::UInt(uint64_t v) { return Raw(std::to_string(v)); }
JsonWriter& JsonWriter::Bool(bool v) { return Raw(v ? "true" : "false"); }
JsonWriter& JsonWriter::Null() { return Raw("null"); }

JsonWriter& JsonWriter::Raw(const std::string& json) {
  Comma();
  out_ += json;
  return *this;
}

}  // namespace dynview
