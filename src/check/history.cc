#include "check/history.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace leed::check {

namespace {

bool PlainKeyChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == '/';
}

std::string EscapeKey(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (PlainKeyChar(c)) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x",
                    static_cast<unsigned>(static_cast<uint8_t>(c)));
      out.append(buf);
    }
  }
  if (out.empty()) out.push_back('%');  // empty key marker (expands to nothing)
  return out;
}

Result<std::string> UnescapeKey(const std::string& esc) {
  if (esc == "%") return std::string();
  std::string out;
  out.reserve(esc.size());
  for (size_t i = 0; i < esc.size(); ++i) {
    if (esc[i] != '%') {
      out.push_back(esc[i]);
      continue;
    }
    if (i + 2 >= esc.size()) return Status::InvalidArgument("truncated escape");
    unsigned v = 0;
    if (std::sscanf(esc.c_str() + i + 1, "%2x", &v) != 1) {
      return Status::InvalidArgument("bad escape in key: " + esc);
    }
    out.push_back(static_cast<char>(v));
    i += 2;
  }
  return out;
}

Result<OpKind> ParseKind(const std::string& s) {
  if (s == "get") return OpKind::kGet;
  if (s == "put") return OpKind::kPut;
  if (s == "del") return OpKind::kDel;
  if (s == "scan") return OpKind::kScan;
  return Status::InvalidArgument("unknown op kind: " + s);
}

// Parses the "s=key:digest,key:digest,..." scan-observation token
// (without the leading "s=").
Result<std::vector<ScanObservation>> ParseScanObs(const std::string& body) {
  std::vector<ScanObservation> obs;
  if (body == "-") return obs;
  size_t pos = 0;
  while (pos <= body.size()) {
    size_t comma = body.find(',', pos);
    const std::string entry =
        body.substr(pos, comma == std::string::npos ? comma : comma - pos);
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad scan observation: " + entry);
    }
    ScanObservation o;
    auto key = UnescapeKey(entry.substr(0, colon));
    LEED_RETURN_IF_ERROR(key.status());
    o.key = std::move(key).value();
    o.digest = std::strtoull(entry.c_str() + colon + 1, nullptr, 16);
    obs.push_back(std::move(o));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return obs;
}

Result<Outcome> ParseOutcome(const std::string& s) {
  if (s == "ok") return Outcome::kOk;
  if (s == "not_found") return Outcome::kNotFound;
  if (s == "error") return Outcome::kError;
  if (s == "open") return Outcome::kOpen;
  return Status::InvalidArgument("unknown outcome: " + s);
}

}  // namespace

std::string_view OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kGet:
      return "get";
    case OpKind::kPut:
      return "put";
    case OpKind::kDel:
      return "del";
    case OpKind::kScan:
      return "scan";
  }
  return "?";
}

std::string_view OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kNotFound:
      return "not_found";
    case Outcome::kError:
      return "error";
    case Outcome::kOpen:
      return "open";
  }
  return "?";
}

uint64_t HistoryLog::RecordInvoke(uint32_t client, OpKind kind,
                                  const std::string& key,
                                  uint64_t value_digest, uint32_t value_size,
                                  SimTime now) {
  if (ops_.size() >= max_ops_) {
    ++dropped_;
    return 0;
  }
  HistoryOp op;
  op.id = ops_.size() + 1;
  op.client = client;
  op.kind = kind;
  op.key = key;
  op.value_digest = value_digest;
  op.value_size = value_size;
  op.invoke = now;
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

void HistoryLog::RecordResponse(uint64_t op_id, SimTime now, Outcome outcome,
                                uint64_t value_digest, uint32_t value_size) {
  if (op_id == 0 || op_id > ops_.size()) return;
  HistoryOp& op = ops_[op_id - 1];
  op.response = now;
  op.outcome = outcome;
  if (op.kind == OpKind::kGet && outcome == Outcome::kOk) {
    op.value_digest = value_digest;
    op.value_size = value_size;
  }
}

void HistoryLog::RecordScanResponse(uint64_t op_id, SimTime now,
                                    Outcome outcome,
                                    std::vector<ScanObservation> observations) {
  if (op_id == 0 || op_id > ops_.size()) return;
  HistoryOp& op = ops_[op_id - 1];
  op.response = now;
  op.outcome = outcome;
  if (outcome == Outcome::kOk) op.scan_obs = std::move(observations);
}

std::string FormatOp(const HistoryOp& op) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRIu64 " c%u %s %s d=%016" PRIx64 " n=%u i=%" PRId64
                " r=",
                op.id, op.client, std::string(OpKindName(op.kind)).c_str(),
                EscapeKey(op.key).c_str(), op.value_digest, op.value_size,
                op.invoke);
  std::string line(buf);
  if (op.response == kNoResponse) {
    line += "-";
  } else {
    line += std::to_string(op.response);
  }
  line += " ";
  line += OutcomeName(op.outcome);
  if (op.kind == OpKind::kScan) {
    line += " s=";
    if (op.scan_obs.empty()) {
      line += "-";
    } else {
      for (size_t i = 0; i < op.scan_obs.size(); ++i) {
        if (i > 0) line += ",";
        char dbuf[24];
        std::snprintf(dbuf, sizeof(dbuf), "%016" PRIx64, op.scan_obs[i].digest);
        line += EscapeKey(op.scan_obs[i].key);
        line += ":";
        line += dbuf;
      }
    }
  }
  return line;
}

std::string FormatDump(const std::vector<HistoryOp>& ops, uint64_t dropped) {
  std::string out = "leed-history v2 ops=" + std::to_string(ops.size()) +
                    " dropped=" + std::to_string(dropped) + "\n";
  for (const HistoryOp& op : ops) {
    out += FormatOp(op);
    out += "\n";
  }
  return out;
}

std::string HistoryLog::Dump() const { return FormatDump(ops_, dropped_); }

bool HistoryLog::WriteFile(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << Dump();
  return static_cast<bool>(f);
}

Result<std::vector<HistoryOp>> HistoryLog::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty history");
  }
  uint64_t n = 0, dropped = 0;
  unsigned version = 0;
  if (std::sscanf(line.c_str(), "leed-history v%u ops=%" SCNu64
                  " dropped=%" SCNu64, &version, &n, &dropped) != 3 ||
      version < 1 || version > 2) {
    return Status::InvalidArgument("bad history header: " + line);
  }
  std::vector<HistoryOp> ops;
  ops.reserve(n);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    HistoryOp op;
    std::string client_tok, kind_tok, key_tok, d_tok, n_tok, i_tok, r_tok,
        outcome_tok;
    if (!(ls >> op.id >> client_tok >> kind_tok >> key_tok >> d_tok >> n_tok >>
          i_tok >> r_tok >> outcome_tok)) {
      return Status::InvalidArgument("short history line: " + line);
    }
    if (client_tok.size() < 2 || client_tok[0] != 'c') {
      return Status::InvalidArgument("bad client token: " + client_tok);
    }
    op.client = static_cast<uint32_t>(std::strtoul(client_tok.c_str() + 1,
                                                   nullptr, 10));
    auto kind = ParseKind(kind_tok);
    LEED_RETURN_IF_ERROR(kind.status());
    op.kind = kind.value();
    auto key = UnescapeKey(key_tok);
    LEED_RETURN_IF_ERROR(key.status());
    op.key = std::move(key).value();
    if (d_tok.rfind("d=", 0) != 0 || n_tok.rfind("n=", 0) != 0 ||
        i_tok.rfind("i=", 0) != 0 || r_tok.rfind("r=", 0) != 0) {
      return Status::InvalidArgument("bad field tags: " + line);
    }
    op.value_digest = std::strtoull(d_tok.c_str() + 2, nullptr, 16);
    op.value_size =
        static_cast<uint32_t>(std::strtoul(n_tok.c_str() + 2, nullptr, 10));
    op.invoke = std::strtoll(i_tok.c_str() + 2, nullptr, 10);
    if (r_tok == "r=-") {
      op.response = kNoResponse;
    } else {
      op.response = std::strtoll(r_tok.c_str() + 2, nullptr, 10);
    }
    auto outcome = ParseOutcome(outcome_tok);
    LEED_RETURN_IF_ERROR(outcome.status());
    op.outcome = outcome.value();
    if (op.kind == OpKind::kScan) {
      if (version < 2) {
        return Status::InvalidArgument("scan op in a v1 history: " + line);
      }
      std::string s_tok;
      if (!(ls >> s_tok) || s_tok.rfind("s=", 0) != 0) {
        return Status::InvalidArgument("scan op missing s= token: " + line);
      }
      auto obs = ParseScanObs(s_tok.substr(2));
      LEED_RETURN_IF_ERROR(obs.status());
      op.scan_obs = std::move(obs).value();
    }
    if (op.outcome == Outcome::kOpen && op.response != kNoResponse) {
      return Status::InvalidArgument("open op with a response time: " + line);
    }
    if (op.outcome != Outcome::kOpen && op.response == kNoResponse) {
      return Status::InvalidArgument("completed op without response: " + line);
    }
    if (op.response != kNoResponse && op.response < op.invoke) {
      return Status::InvalidArgument("response precedes invoke: " + line);
    }
    ops.push_back(std::move(op));
  }
  if (ops.size() != n) {
    return Status::InvalidArgument(
        "header op count mismatch: header says " + std::to_string(n) +
        ", parsed " + std::to_string(ops.size()));
  }
  return ops;
}

Result<std::vector<HistoryOp>> HistoryLog::ParseFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return Parse(buf.str());
}

}  // namespace leed::check
