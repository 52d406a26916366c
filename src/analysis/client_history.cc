#include "analysis/client_history.h"

#include <sstream>
#include <utility>

#include "obs/json.h"

namespace dcp::analysis {
namespace {

const char* KindName(ClientOp::Kind k) {
  return k == ClientOp::Kind::kWrite ? "write" : "read";
}

const char* OutcomeName(ClientOp::Outcome o) {
  switch (o) {
    case ClientOp::Outcome::kOk:
      return "ok";
    case ClientOp::Outcome::kFailed:
      return "failed";
    case ClientOp::Outcome::kOpen:
      return "open";
  }
  return "open";
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  auto nibble = [](char c, uint8_t* v) {
    if (c >= '0' && c <= '9') {
      *v = static_cast<uint8_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      *v = static_cast<uint8_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      *v = static_cast<uint8_t>(c - 'A' + 10);
    } else {
      return false;
    }
    return true;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    uint8_t hi = 0;
    uint8_t lo = 0;
    if (!nibble(hex[i], &hi) || !nibble(hex[i + 1], &lo)) return false;
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

}  // namespace

std::string ClientOp::Describe() const {
  std::ostringstream os;
  os << KindName(kind) << " op#" << id << " client " << client << " obj "
     << object << " [" << invoked_at << ", ";
  if (outcome == Outcome::kOpen) {
    os << "inf";
  } else {
    os << returned_at;
  }
  os << ") " << OutcomeName(outcome);
  if (kind == Kind::kWrite) {
    if (update.total) {
      os << " total(" << update.bytes.size() << "B)";
    } else {
      os << " partial[" << update.offset << ","
         << update.offset + update.bytes.size() << ")";
    }
    if (outcome == Outcome::kOk) os << " -> v" << version;
  } else if (outcome == Outcome::kOk) {
    os << " -> v" << version << " " << HexEncode(data);
  }
  return os.str();
}

uint64_t ClientHistory::InvokeWrite(uint64_t client, storage::ObjectId object,
                                    const storage::Update& update,
                                    double now) {
  ClientOp op;
  op.client = client;
  op.id = static_cast<uint64_t>(ops_.size());
  op.object = object;
  op.kind = ClientOp::Kind::kWrite;
  op.outcome = ClientOp::Outcome::kOpen;
  op.invoked_at = now;
  op.update = update;
  ops_.push_back(std::move(op));
  settled_.push_back(false);
  return ops_.back().id;
}

uint64_t ClientHistory::InvokeRead(uint64_t client, storage::ObjectId object,
                                   double now) {
  ClientOp op;
  op.client = client;
  op.id = static_cast<uint64_t>(ops_.size());
  op.object = object;
  op.kind = ClientOp::Kind::kRead;
  op.outcome = ClientOp::Outcome::kOpen;
  op.invoked_at = now;
  ops_.push_back(std::move(op));
  settled_.push_back(false);
  return ops_.back().id;
}

void ClientHistory::ReturnWrite(uint64_t id, double now,
                                storage::Version version) {
  if (settled_.at(id)) return;
  ClientOp& op = ops_.at(id);
  op.outcome = ClientOp::Outcome::kOk;
  op.returned_at = now;
  op.version = version;
  settled_[id] = true;
}

void ClientHistory::ReturnRead(uint64_t id, double now,
                               storage::Version version,
                               std::vector<uint8_t> data) {
  if (settled_.at(id)) return;
  ClientOp& op = ops_.at(id);
  op.outcome = ClientOp::Outcome::kOk;
  op.returned_at = now;
  op.version = version;
  op.data = std::move(data);
  settled_[id] = true;
}

void ClientHistory::Fail(uint64_t id, double now, bool definite) {
  if (settled_.at(id)) return;
  ClientOp& op = ops_.at(id);
  op.returned_at = now;
  // An indefinite failure keeps the open interval: the operation may have
  // committed behind the error (the recorded time is diagnostic only).
  op.outcome =
      definite ? ClientOp::Outcome::kFailed : ClientOp::Outcome::kOpen;
  settled_[id] = true;
}

void ClientHistory::Abandon(uint64_t id, double now) {
  if (settled_.at(id)) return;
  ClientOp& op = ops_.at(id);
  op.outcome = ClientOp::Outcome::kOpen;
  op.returned_at = now;  // Give-up time; never a linearization bound.
  settled_[id] = true;
}

uint64_t ClientHistory::Add(ClientOp op) {
  op.id = static_cast<uint64_t>(ops_.size());
  ops_.push_back(std::move(op));
  settled_.push_back(true);
  return ops_.back().id;
}

std::string ClientHistory::ToJsonl() const {
  std::string out;
  for (const ClientOp& op : ops_) {
    out += "{\"client\":";
    obs::AppendJsonNumber(&out, static_cast<double>(op.client));
    out += ",\"op\":";
    obs::AppendJsonNumber(&out, static_cast<double>(op.id));
    out += ",\"object\":";
    obs::AppendJsonNumber(&out, static_cast<double>(op.object));
    out += ",\"kind\":\"";
    out += KindName(op.kind);
    out += "\",\"outcome\":\"";
    out += OutcomeName(op.outcome);
    out += "\",\"invoked\":";
    obs::AppendJsonNumber(&out, op.invoked_at);
    if (op.outcome != ClientOp::Outcome::kOpen || op.returned_at != 0) {
      out += ",\"returned\":";
      obs::AppendJsonNumber(&out, op.returned_at);
    }
    if (op.kind == ClientOp::Kind::kWrite) {
      out += ",\"total\":";
      out += op.update.total ? "true" : "false";
      out += ",\"offset\":";
      obs::AppendJsonNumber(&out, static_cast<double>(op.update.offset));
      out += ",\"bytes\":\"";
      out += HexEncode(op.update.bytes);
      out += '"';
      if (op.outcome == ClientOp::Outcome::kOk) {
        out += ",\"version\":";
        obs::AppendJsonNumber(&out, static_cast<double>(op.version));
      }
    } else if (op.outcome == ClientOp::Outcome::kOk) {
      out += ",\"version\":";
      obs::AppendJsonNumber(&out, static_cast<double>(op.version));
      out += ",\"data\":\"";
      out += HexEncode(op.data);
      out += '"';
      if (!op.read_full) {
        out += ",\"read_offset\":";
        obs::AppendJsonNumber(&out, static_cast<double>(op.read_offset));
      }
    }
    out += "}\n";
  }
  return out;
}

bool IsDefiniteFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAborted:
    case StatusCode::kConflict:
    case StatusCode::kStaleData:
      return true;
    default:
      return false;
  }
}

bool ClientHistory::FromJsonl(const std::string& jsonl, ClientHistory* out) {
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    std::string_view line(jsonl.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;

    obs::JsonValue v;
    if (!obs::ParseJson(line, &v) || !v.is_object()) return false;
    ClientOp op;
    op.client = static_cast<uint64_t>(v.NumberOr("client", 0));
    op.object = static_cast<storage::ObjectId>(v.NumberOr("object", 0));
    op.kind = v.StringOr("kind", "read") == "write" ? ClientOp::Kind::kWrite
                                                    : ClientOp::Kind::kRead;
    std::string outcome = v.StringOr("outcome", "open");
    op.outcome = outcome == "ok"       ? ClientOp::Outcome::kOk
                 : outcome == "failed" ? ClientOp::Outcome::kFailed
                                       : ClientOp::Outcome::kOpen;
    op.invoked_at = v.NumberOr("invoked", 0);
    op.returned_at = v.NumberOr("returned", 0);
    op.version = static_cast<storage::Version>(v.NumberOr("version", 0));
    if (op.kind == ClientOp::Kind::kWrite) {
      op.update.total = false;
      if (const obs::JsonValue* total = v.Find("total")) {
        op.update.total = total->boolean;
      }
      op.update.offset = static_cast<uint64_t>(v.NumberOr("offset", 0));
      if (!HexDecode(v.StringOr("bytes", ""), &op.update.bytes)) return false;
    } else {
      if (!HexDecode(v.StringOr("data", ""), &op.data)) return false;
      if (const obs::JsonValue* ro = v.Find("read_offset")) {
        op.read_full = false;
        op.read_offset = static_cast<uint64_t>(ro->number);
      }
    }
    out->Add(std::move(op));
  }
  return true;
}

}  // namespace dcp::analysis
