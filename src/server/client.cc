#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace dynview {

Result<std::unique_ptr<ServerClient>> ServerClient::Connect(
    const std::string& host, int port, const std::string& client_name) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("socket() failed: " +
                               std::string(strerror(errno)));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host \"" + host + "\"");
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::Unavailable("connect to " + host + ":" +
                                   std::to_string(port) +
                                   " failed: " + strerror(errno));
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::unique_ptr<ServerClient> client(new ServerClient());
  client->fd_ = fd;

  Request hello;
  hello.id = 0;
  hello.verb = Verb::kHello;
  hello.client = client_name.empty() ? "dynview-client" : client_name;
  DV_RETURN_IF_ERROR(client->SendRawFrame(EncodeRequest(hello)));
  // The hello reply is the only frame that can arrive on a fresh session.
  DV_RETURN_IF_ERROR(client->Pump(/*any=*/false, 0));
  if (client->finished_.count(0) == 0) {
    return Status::Internal("handshake reply missing");
  }
  ClientReply reply = client->TakeFinished(0);
  if (!reply.status.ok()) return reply.status;
  if (reply.stats.count("session") == 0) {
    return Status::Internal("handshake reply malformed");
  }
  client->hello_.session = reply.stats["session"];
  client->hello_.protocol = static_cast<int>(reply.stats["protocol"]);
  client->hello_.max_frame_bytes = reply.stats["max_frame_bytes"];
  client->hello_.chunk_rows = reply.stats["chunk_rows"];
  client->hello_.max_inflight = reply.stats["max_inflight"];
  client->hello_.server = reply.text;
  if (client->hello_.protocol != kProtocolVersion) {
    return Status::Unsupported(
        "server speaks protocol " + std::to_string(client->hello_.protocol) +
        ", client speaks " + std::to_string(kProtocolVersion));
  }
  return client;
}

ServerClient::~ServerClient() { CloseAbruptly(); }

void ServerClient::CloseAbruptly() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status ServerClient::WriteAll(const char* data, size_t len) {
  if (fd_ < 0) return Status::Unavailable("client connection closed");
  size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: a peer-closed socket must surface as EPIPE, not kill
    // the process (tests and the server share one process).
    ssize_t n = send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("write failed: " +
                                 std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ServerClient::SendRawBytes(const std::string& bytes) {
  return WriteAll(bytes.data(), bytes.size());
}

Status ServerClient::SendRawFrame(const std::string& payload) {
  const std::string frame = EncodeFrame(payload);
  return WriteAll(frame.data(), frame.size());
}

Result<uint64_t> ServerClient::SendRequest(Request req) {
  if (req.id == 0) req.id = next_id_++;
  DV_RETURN_IF_ERROR(SendRawFrame(EncodeRequest(req)));
  return req.id;
}

Result<uint64_t> ServerClient::SendQuery(const std::string& sql,
                                         const ClientQueryOptions& options) {
  Request req;
  req.verb = Verb::kQuery;
  req.sql = sql;
  req.multiset = options.multiset;
  req.deadline_ms = options.deadline_ms;
  req.row_budget = options.row_budget;
  req.byte_budget = options.byte_budget;
  req.source_policy = options.source_policy;
  return SendRequest(std::move(req));
}

Result<uint64_t> ServerClient::SendExplain(const std::string& sql) {
  Request req;
  req.verb = Verb::kExplain;
  req.sql = sql;
  return SendRequest(std::move(req));
}

Result<uint64_t> ServerClient::SendExecute(uint64_t prepared,
                                           const std::vector<Value>& params,
                                           const ClientQueryOptions& options) {
  Request req;
  req.verb = Verb::kExecute;
  req.prepared = prepared;
  req.params = params;
  req.multiset = options.multiset;
  req.deadline_ms = options.deadline_ms;
  req.row_budget = options.row_budget;
  req.byte_budget = options.byte_budget;
  req.source_policy = options.source_policy;
  return SendRequest(std::move(req));
}

ClientReply ServerClient::TakeFinished(uint64_t id) {
  ClientReply reply = std::move(finished_[id]);
  finished_.erase(id);
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (*it == id) {
      order_.erase(it);
      break;
    }
  }
  return reply;
}

Result<ClientReply> ServerClient::Await(uint64_t id) {
  if (finished_.count(id) == 0) {
    DV_RETURN_IF_ERROR(Pump(/*any=*/false, id));
    if (finished_.count(id) == 0) {
      return Status::Internal("terminal frame for request " +
                              std::to_string(id) + " never materialized");
    }
  }
  return TakeFinished(id);
}

Result<ClientReply> ServerClient::AwaitNext() {
  if (order_.empty()) {
    DV_RETURN_IF_ERROR(Pump(/*any=*/true, 0));
    if (order_.empty()) {
      return Status::Internal("no terminal frame arrived");
    }
  }
  return TakeFinished(order_.front());
}

Status ServerClient::Pump(bool any, uint64_t want) {
  char buf[16384];
  auto satisfied = [&] {
    return any ? !order_.empty() : finished_.count(want) > 0;
  };
  for (;;) {
    if (satisfied()) return Status::OK();
    std::string payload;
    while (decoder_.Next(&payload)) {
      DV_RETURN_IF_ERROR(HandleReplyFrame(payload));
      if (satisfied()) return Status::OK();
    }
    if (fd_ < 0) return Status::Unavailable("client connection closed");
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) {
      return Status::Unavailable(
          "server closed the connection mid-conversation");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("read failed: " +
                                 std::string(strerror(errno)));
    }
    DV_RETURN_IF_ERROR(decoder_.Feed(buf, static_cast<size_t>(n)));
  }
}

Status ServerClient::HandleReplyFrame(const std::string& payload) {
  Result<JsonValue> parsed = JsonParse(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("reply frame is not a JSON object");
  }
  const uint64_t id = static_cast<uint64_t>(doc.GetInt("id", 0));
  const std::string type = doc.GetString("type");

  if (type == "hello") {
    // Flattened into the ClientReply carrier; Connect unpacks it.
    ClientReply reply;
    reply.id = id;
    reply.stats["session"] = static_cast<uint64_t>(doc.GetInt("session", 0));
    reply.stats["protocol"] = static_cast<uint64_t>(doc.GetInt("protocol", 0));
    reply.stats["max_frame_bytes"] =
        static_cast<uint64_t>(doc.GetInt("max_frame_bytes", 0));
    reply.stats["chunk_rows"] =
        static_cast<uint64_t>(doc.GetInt("chunk_rows", 0));
    reply.stats["max_inflight"] =
        static_cast<uint64_t>(doc.GetInt("max_inflight", 0));
    reply.text = doc.GetString("server");
    finished_[id] = std::move(reply);
    order_.push_back(id);
    return Status::OK();
  }

  if (type == "chunk") {
    ClientReply& partial = pending_[id];
    partial.id = id;
    // Appended from the parsed frame in place (GetString would copy it).
    const JsonValue* csv = doc.Find("csv");
    if (csv != nullptr) partial.csv += csv->s;
    ++partial.chunks;
    return Status::OK();
  }

  if (type == "done") {
    ClientReply reply = std::move(pending_[id]);
    pending_.erase(id);
    reply.id = id;
    reply.rows = static_cast<uint64_t>(doc.GetInt("rows", 0));
    const JsonValue* kinds = doc.Find("kinds");
    if (kinds != nullptr && kinds->is_array()) {
      for (const JsonValue& k : kinds->items) reply.kinds.push_back(k.s);
    }
    const JsonValue* warnings = doc.Find("warnings");
    if (warnings != nullptr && warnings->is_array()) {
      for (const JsonValue& w : warnings->items) {
        ClientReply::Warning warning;
        warning.source = w.GetString("source");
        warning.code = ParseStatusCodeName(w.GetString("code"));
        warning.message = w.GetString("message");
        warning.count = static_cast<uint64_t>(w.GetInt("count", 0));
        reply.warnings.push_back(std::move(warning));
      }
    }
    reply.snapshot_version =
        static_cast<uint64_t>(doc.GetInt("snapshot_version", 0));
    reply.plan_cached = doc.GetBool("plan_cached", false);
    reply.fingerprint = doc.GetString("fingerprint");
    reply.queue_ms = doc.GetDouble("queue_ms", 0.0);
    reply.exec_ms = doc.GetDouble("exec_ms", 0.0);
    reply.text = doc.GetString("text");
    reply.prepared = static_cast<uint64_t>(doc.GetInt("prepared", 0));
    reply.prepared_params = static_cast<int>(doc.GetInt("prepared_params", -1));
    const JsonValue* stats = doc.Find("stats");
    if (stats != nullptr && stats->is_object()) {
      for (const auto& [k, v] : stats->fields) {
        reply.stats[k] = v.kind == JsonValue::Kind::kInt
                             ? static_cast<uint64_t>(v.i)
                             : 0;
      }
    }
    finished_[id] = std::move(reply);
    order_.push_back(id);
    return Status::OK();
  }

  if (type == "error") {
    ClientReply reply = std::move(pending_[id]);
    pending_.erase(id);
    reply.id = id;
    reply.status =
        Status(ParseStatusCodeName(doc.GetString("code", "Internal")),
               doc.GetString("message"));
    reply.retry_after_ms = static_cast<int>(doc.GetInt("retry_after_ms", 0));
    reply.queue_depth = doc.GetString("queue_depth");
    finished_[id] = std::move(reply);
    order_.push_back(id);
    return Status::OK();
  }

  return Status::InvalidArgument("unknown reply type \"" + type + "\"");
}

Result<ClientReply> ServerClient::Query(const std::string& sql,
                                        const ClientQueryOptions& options) {
  DV_ASSIGN_OR_RETURN(uint64_t id, SendQuery(sql, options));
  return Await(id);
}

Result<ClientReply> ServerClient::Explain(const std::string& sql) {
  DV_ASSIGN_OR_RETURN(uint64_t id, SendExplain(sql));
  return Await(id);
}

Result<ClientReply> ServerClient::Lint() {
  Request req;
  req.verb = Verb::kLint;
  DV_ASSIGN_OR_RETURN(uint64_t id, SendRequest(std::move(req)));
  return Await(id);
}

Result<ClientReply> ServerClient::Audit(const std::string& what_if,
                                        const std::string& format) {
  Request req;
  req.verb = Verb::kAudit;
  req.what_if = what_if;
  req.format = format;
  DV_ASSIGN_OR_RETURN(uint64_t id, SendRequest(std::move(req)));
  return Await(id);
}

Result<ClientReply> ServerClient::Prepare(const std::string& sql) {
  Request req;
  req.verb = Verb::kPrepare;
  req.sql = sql;
  DV_ASSIGN_OR_RETURN(uint64_t id, SendRequest(std::move(req)));
  return Await(id);
}

Result<ClientReply> ServerClient::Execute(uint64_t prepared,
                                          const std::vector<Value>& params,
                                          const ClientQueryOptions& options) {
  DV_ASSIGN_OR_RETURN(uint64_t id, SendExecute(prepared, params, options));
  return Await(id);
}

Result<ClientReply> ServerClient::Stats() {
  Request req;
  req.verb = Verb::kStats;
  DV_ASSIGN_OR_RETURN(uint64_t id, SendRequest(std::move(req)));
  return Await(id);
}

Result<ClientReply> ServerClient::Ping() {
  Request req;
  req.verb = Verb::kPing;
  DV_ASSIGN_OR_RETURN(uint64_t id, SendRequest(std::move(req)));
  return Await(id);
}

}  // namespace dynview
