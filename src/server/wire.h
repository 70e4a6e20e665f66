#ifndef DYNVIEW_SERVER_WIRE_H_
#define DYNVIEW_SERVER_WIRE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dynview {

/// The server's wire format is length-prefixed JSON: every frame is a
/// 4-byte little-endian payload length followed by exactly that many bytes
/// of UTF-8 JSON (one object per frame). JSON keeps the protocol debuggable
/// with nothing but `nc` and a hex dump; the length prefix keeps framing
/// trivial and makes oversized/torn input detectable *before* parsing.
///
/// Robustness contract (exercised by tests/server_test.cc): a declared
/// length above the negotiated maximum, a torn prefix or payload at EOF,
/// and payloads that are not valid JSON all surface as deterministic
/// errors — never a crash, never an out-of-bounds read.

inline constexpr size_t kFrameHeaderBytes = 4;

/// Serializes `payload` as one frame (header + bytes).
std::string EncodeFrame(const std::string& payload);

/// Writes the length header of `frame`, a payload written after
/// kFrameHeaderBytes reserved bytes (frames encoded in place).
void PatchFrameHeader(std::string* frame);

/// Incremental frame splitter: feed bytes as they arrive, pop complete
/// payloads. Tolerates payloads split across arbitrarily many reads.
class FrameDecoder {
 public:
  /// `max_frame_bytes` bounds the *declared* payload length; a frame header
  /// announcing more trips the decoder into a permanent error state (the
  /// connection must be dropped — resynchronizing inside a byte stream with
  /// a poisoned length is guesswork).
  explicit FrameDecoder(size_t max_frame_bytes) : max_(max_frame_bytes) {}

  /// Appends `data` to the internal buffer. Returns OK, or the permanent
  /// framing error (oversized declaration).
  Status Feed(const char* data, size_t len);

  /// Pops the next complete payload into `out`; returns false when no
  /// complete frame is buffered (or the decoder is in its error state).
  bool Next(std::string* out);

  /// Non-empty partial frame left buffered — at EOF this is a torn frame.
  bool HasPartial() const { return !broken_ && !buf_.empty(); }

  const Status& error() const { return error_; }

 private:
  static constexpr size_t kNoFrame = ~size_t{0};
  /// The first buffered frame's declared length; kNoFrame while the header
  /// is incomplete or once a declaration above the maximum broke the stream.
  size_t DeclaredLength();

  size_t max_;
  std::string buf_;
  bool broken_ = false;
  Status error_;
};

/// A minimal JSON document model: exactly what the protocol needs (objects,
/// arrays, strings, 64-bit ints, doubles, bools, null), kept deliberately
/// independent of any third-party dependency.
struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<JsonValue> items;                    // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject (ordered)

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }

  /// Object field lookup (first match); null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed field accessors with defaults, for tolerant request parsing.
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  double GetDouble(const std::string& key, double def = 0.0) const;
  bool GetBool(const std::string& key, bool def = false) const;
  std::string GetString(const std::string& key,
                        const std::string& def = "") const;
};

/// Parses one JSON document (the whole of `text`, trailing whitespace
/// allowed). Depth-limited and allocation-bounded; malformed input returns
/// ParseError with a byte offset, never UB.
Result<JsonValue> JsonParse(const std::string& text);

/// Incremental JSON writer producing compact output. Escaping matches
/// RFC 8259 (control characters as \u00XX).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Starts a field inside an object; follow with one value call.
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();
  /// Splices pre-rendered JSON (e.g. RenderDiagnosticsJson output) as a
  /// value. The caller vouches it is well-formed.
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Comma();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  std::string out_;
  /// True when the next value/key at the current nesting level needs a
  /// preceding comma.
  std::vector<bool> need_comma_{false};
};

/// Appends the RFC 8259 escaping of `s` (without quotes) to `out`.
void JsonEscapeTo(std::string& out, std::string_view s);

}  // namespace dynview

#endif  // DYNVIEW_SERVER_WIRE_H_
