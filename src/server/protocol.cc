#include "server/protocol.h"

#include <cstdio>

#include "common/date.h"

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
  if (name == "hello") return Verb::kHello;
  if (name == "query") return Verb::kQuery;
  if (name == "execute") return Verb::kExecute;
  if (name == "explain") return Verb::kExplain;
  if (name == "lint") return Verb::kLint;
  if (name == "audit") return Verb::kAudit;
  if (name == "prepare") return Verb::kPrepare;
  if (name == "stats") return Verb::kStats;
  if (name == "ping") return Verb::kPing;
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

std::string EncodeChunk(uint64_t id, uint64_t seq, const std::string& csv) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").UInt(id);
  w.Key("type").String("chunk");
  w.Key("seq").UInt(seq);
  w.Key("csv").String(csv);
  w.EndObject();
  return w.Take();
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
    case TypeKind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(v.as_int()));
      w.Key("v").String(buf);
      break;
    }
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
