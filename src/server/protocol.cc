#include "server/protocol.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/date.h"
#include "relational/csv.h"

namespace dynview {

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kHello: return "hello";
    case Verb::kQuery: return "query";
    case Verb::kExecute: return "execute";
    case Verb::kExplain: return "explain";
    case Verb::kLint: return "lint";
    case Verb::kAudit: return "audit";
    case Verb::kPrepare: return "prepare";
    case Verb::kStats: return "stats";
    case Verb::kPing: return "ping";
  }
  return "ping";
}

Result<Verb> ParseVerb(const std::string& name) {
  for (Verb v : {Verb::kHello, Verb::kQuery, Verb::kExecute, Verb::kExplain,
                 Verb::kLint, Verb::kAudit, Verb::kPrepare, Verb::kStats,
                 Verb::kPing}) {
    if (name == VerbName(v)) return v;
  }
  return Status::InvalidArgument("unknown verb \"" + name + "\"");
}

Result<Request> ParseRequest(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("request frame is not a JSON object");
  }
  Request req;
  const JsonValue* id = doc.Find("id");
  if (id != nullptr) {
    if (id->kind != JsonValue::Kind::kInt || id->i < 0) {
      return Status::InvalidArgument("request id must be a non-negative int");
    }
    req.id = static_cast<uint64_t>(id->i);
  }
  DV_ASSIGN_OR_RETURN(req.verb, ParseVerb(doc.GetString("verb", "")));
  req.sql = doc.GetString("sql");
  req.multiset = doc.GetBool("multiset", false);
  req.deadline_ms = doc.GetInt("deadline_ms", -1);
  int64_t rb = doc.GetInt("row_budget", 0);
  int64_t bb = doc.GetInt("byte_budget", 0);
  req.row_budget = rb > 0 ? static_cast<uint64_t>(rb) : 0;
  req.byte_budget = bb > 0 ? static_cast<uint64_t>(bb) : 0;
  req.source_policy = doc.GetString("source_policy");
  if (!req.source_policy.empty() && req.source_policy != "fail_fast" &&
      req.source_policy != "retry" && req.source_policy != "skip_and_report") {
    return Status::InvalidArgument("unknown source_policy \"" +
                                   req.source_policy + "\"");
  }
  int64_t prepared = doc.GetInt("prepared", 0);
  req.prepared = prepared > 0 ? static_cast<uint64_t>(prepared) : 0;
  const JsonValue* params = doc.Find("params");
  if (params != nullptr) {
    if (!params->is_array()) {
      return Status::InvalidArgument("params must be an array");
    }
    req.params.reserve(params->items.size());
    for (const JsonValue& p : params->items) {
      DV_ASSIGN_OR_RETURN(Value v, DecodeWireValue(p));
      req.params.push_back(std::move(v));
    }
  }
  req.client = doc.GetString("client");
  int64_t inflight = doc.GetInt("max_inflight", 0);
  req.max_inflight = inflight > 0 ? static_cast<size_t>(inflight) : 0;
  req.what_if = doc.GetString("what_if");
  req.format = doc.GetString("format");
  if (!req.format.empty() && req.format != "text" && req.format != "json") {
    return Status::InvalidArgument("unknown format \"" + req.format + "\"");
  }
  return req;
}

std::string EncodeRequest(const Request& req) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").UInt(req.id);
  w.Key("verb").String(VerbName(req.verb));
  if (!req.sql.empty()) w.Key("sql").String(req.sql);
  if (req.multiset) w.Key("multiset").Bool(true);
  if (req.deadline_ms >= 0) w.Key("deadline_ms").Int(req.deadline_ms);
  if (req.row_budget > 0) w.Key("row_budget").UInt(req.row_budget);
  if (req.byte_budget > 0) w.Key("byte_budget").UInt(req.byte_budget);
  if (!req.source_policy.empty()) {
    w.Key("source_policy").String(req.source_policy);
  }
  if (req.prepared > 0) w.Key("prepared").UInt(req.prepared);
  if (!req.params.empty()) {
    w.Key("params").BeginArray();
    for (const Value& v : req.params) EncodeWireValue(w, v);
    w.EndArray();
  }
  if (!req.client.empty()) w.Key("client").String(req.client);
  if (req.max_inflight > 0) w.Key("max_inflight").UInt(req.max_inflight);
  if (!req.what_if.empty()) w.Key("what_if").String(req.what_if);
  if (!req.format.empty()) w.Key("format").String(req.format);
  w.EndObject();
  return w.Take();
}

std::string EncodeHelloReply(const HelloReply& reply) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").UInt(0);
  w.Key("type").String("hello");
  w.Key("session").UInt(reply.session);
  w.Key("protocol").Int(reply.protocol);
  w.Key("max_frame_bytes").UInt(reply.max_frame_bytes);
  w.Key("chunk_rows").UInt(reply.chunk_rows);
  w.Key("max_inflight").UInt(reply.max_inflight);
  w.Key("server").String(reply.server);
  w.EndObject();
  return w.Take();
}

namespace {

/// Encodes reply lines [first, last) of `table` (line 0 is the CSV header,
/// line i > 0 is row i - 1) as chunk frames numbered from `seq`: at most
/// `chunk_rows` lines and `max_frame_bytes` of payload per frame.
Status EncodeChunkRange(uint64_t id, const Table& table, size_t first,
                        size_t last, size_t chunk_rows, size_t max_frame_bytes,
                        uint64_t seq, std::vector<std::string>* frames) {
  constexpr std::string_view kClose = "\"}";
  std::string frame, csv;  // csv: one line, escaped as it is appended.
  size_t lines = 0;
  for (size_t line = first; line < last;) {
    if (lines == 0) {
      frame.assign(kFrameHeaderBytes, '\0');
      frame += "{\"id\":" + std::to_string(id) +
               ",\"type\":\"chunk\",\"seq\":" + std::to_string(seq++) +
               ",\"csv\":\"";
    }
    csv.clear();
    if (line == 0) {
      AppendCsvHeader(table.schema(), &csv);
    } else {
      AppendTypedCsvRow(table.row(line - 1), &csv);
    }
    const size_t before = frame.size();
    JsonEscapeTo(frame, csv);
    const bool fits = frame.size() - kFrameHeaderBytes + kClose.size() <=
                      max_frame_bytes;
    if (!fits && lines == 0) {
      return Status::ResourceExhausted(
          (line == 0 ? std::string("the reply header")
                     : "reply row " + std::to_string(line - 1)) +
          " encodes to " + std::to_string(frame.size() - before) +
          " bytes, more than one chunk frame of max_frame_bytes " +
          std::to_string(max_frame_bytes) + " holds");
    }
    if (fits) {
      ++line;
      ++lines;
    } else {
      frame.resize(before);  // The line opens the next frame instead.
    }
    if (!fits || lines == chunk_rows || line == last) {
      frame += kClose;
      PatchFrameHeader(&frame);
      frames->push_back(std::move(frame));
      lines = 0;
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::string>> EncodeChunkFrames(uint64_t id,
                                                   const Table& table,
                                                   size_t chunk_rows,
                                                   size_t max_frame_bytes,
                                                   ThreadPool* pool) {
  const size_t per = std::max<size_t>(chunk_rows, 1);
  const size_t lines = table.num_rows() + 1;
  const size_t parts = (lines + per - 1) / per;
  std::vector<std::vector<std::string>> slots(parts);
  std::vector<Status> status(parts);
  auto encode = [&](size_t p) {
    status[p] = EncodeChunkRange(id, table, p * per,
                                 std::min(lines, (p + 1) * per), per,
                                 max_frame_bytes, p, &slots[p]);
  };
  pool->ParallelFor(parts, encode);
  std::vector<std::string> frames;
  frames.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    DV_RETURN_IF_ERROR(status[p]);
    if (slots[p].size() != 1) {
      // The frame cap split this part, so every later seq shifts: encode
      // the whole reply again in one pass.
      frames.clear();
      DV_RETURN_IF_ERROR(EncodeChunkRange(id, table, 0, lines, per,
                                          max_frame_bytes, 0, &frames));
      return frames;
    }
    frames.push_back(std::move(slots[p][0]));
  }
  return frames;
}

std::string EncodeDone(const DoneReply& reply) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").UInt(reply.id);
  w.Key("type").String("done");
  w.Key("status").String("OK");
  w.Key("rows").UInt(reply.rows);
  if (!reply.kinds.empty()) {
    w.Key("kinds").BeginArray();
    for (const std::string& k : reply.kinds) w.String(k);
    w.EndArray();
  }
  if (!reply.warnings.empty()) {
    w.Key("warnings").BeginArray();
    for (const SourceWarning& sw : reply.warnings) {
      w.BeginObject();
      w.Key("source").String(sw.source);
      w.Key("code").String(StatusCodeName(sw.status.code()));
      w.Key("message").String(sw.status.message());
      w.Key("count").UInt(sw.count);
      w.EndObject();
    }
    w.EndArray();
  }
  if (reply.snapshot_version > 0) {
    w.Key("snapshot_version").UInt(reply.snapshot_version);
  }
  if (reply.plan_cached) w.Key("plan_cached").Bool(true);
  if (!reply.fingerprint.empty()) {
    w.Key("fingerprint").String(reply.fingerprint);
  }
  w.Key("queue_ms").Double(reply.queue_ms);
  w.Key("exec_ms").Double(reply.exec_ms);
  if (!reply.text.empty()) w.Key("text").String(reply.text);
  if (reply.prepared > 0) {
    w.Key("prepared").UInt(reply.prepared);
    w.Key("prepared_params").Int(reply.prepared_params);
  }
  if (!reply.stats.empty()) {
    w.Key("stats").BeginObject();
    for (const auto& [k, v] : reply.stats) w.Key(k).UInt(v);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

std::string EncodeError(const ErrorReply& reply) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").UInt(reply.id);
  w.Key("type").String("error");
  w.Key("code").String(StatusCodeName(reply.status.code()));
  w.Key("message").String(reply.status.message());
  if (reply.retry_after_ms > 0) {
    w.Key("retry_after_ms").Int(reply.retry_after_ms);
  }
  if (!reply.queue_depth.empty()) {
    w.Key("queue_depth").String(reply.queue_depth);
  }
  w.EndObject();
  return w.Take();
}

void EncodeWireValue(JsonWriter& w, const Value& v) {
  w.BeginObject();
  w.Key("k").String(TypeKindName(v.kind()));
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      w.Key("v").String(v.as_bool() ? "true" : "false");
      break;
    case TypeKind::kInt:
      w.Key("v").String(std::to_string(v.as_int()));
      break;
    case TypeKind::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
      w.Key("v").String(buf);
      break;
    }
    case TypeKind::kString:
      w.Key("v").String(v.as_string());
      break;
    case TypeKind::kDate:
      w.Key("v").String(v.as_date().ToString());
      break;
  }
  w.EndObject();
}

Result<TypeKind> ParseTypeKindName(const std::string& name) {
  for (TypeKind k : {TypeKind::kNull, TypeKind::kBool, TypeKind::kInt,
                     TypeKind::kDouble, TypeKind::kString, TypeKind::kDate}) {
    if (name == TypeKindName(k)) return k;
  }
  return Status::InvalidArgument("unknown type kind \"" + name + "\"");
}

Result<Value> DecodeWireValue(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("wire value is not an object");
  }
  DV_ASSIGN_OR_RETURN(TypeKind kind, ParseTypeKindName(doc.GetString("k")));
  const std::string text = doc.GetString("v");
  switch (kind) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool:
      if (text == "true") return Value::Bool(true);
      if (text == "false") return Value::Bool(false);
      return Status::InvalidArgument("bad BOOL wire value \"" + text + "\"");
    case TypeKind::kInt: {
      errno = 0;
      char* end = nullptr;
      long long v = strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || text.empty()) {
        return Status::InvalidArgument("bad INT wire value \"" + text + "\"");
      }
      return Value::Int(static_cast<int64_t>(v));
    }
    case TypeKind::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || text.empty()) {
        return Status::InvalidArgument("bad DOUBLE wire value \"" + text +
                                       "\"");
      }
      return Value::Double(v);
    }
    case TypeKind::kString:
      return Value::String(text);
    case TypeKind::kDate: {
      DV_ASSIGN_OR_RETURN(Date d, Date::Parse(text));
      return Value::MakeDate(d);
    }
  }
  return Status::Internal("unreachable");
}

StatusCode ParseStatusCodeName(const std::string& name) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kBindError, StatusCode::kTypeError, StatusCode::kEvalError,
        StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable,
        StatusCode::kDataLoss}) {
    if (name == StatusCodeName(c)) return c;
  }
  return StatusCode::kInternal;
}

}  // namespace dynview
