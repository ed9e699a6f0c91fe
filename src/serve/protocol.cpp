#include "serve/protocol.hpp"

#include <cctype>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "util/strf.hpp"

namespace m3d::serve {

using util::json::Value;

namespace {

bool parse_bench(const std::string& s, gen::Bench* out) {
  for (gen::Bench b : gen::all_benches()) {
    if (s == gen::to_string(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

bool parse_style(const std::string& s, tech::Style* out) {
  for (tech::Style st :
       {tech::Style::k2D, tech::Style::kTMI, tech::Style::kTMIPlusM}) {
    if (s == tech::to_string(st)) {
      *out = st;
      return true;
    }
  }
  return false;
}

bool parse_node(const std::string& s, tech::Node* out) {
  for (tech::Node n : {tech::Node::k45nm, tech::Node::k7nm}) {
    if (s == tech::to_string(n)) {
      *out = n;
      return true;
    }
  }
  return false;
}

bool parse_check_level(const std::string& s, check::Level* out) {
  for (check::Level l :
       {check::Level::kNone, check::Level::kBasic, check::Level::kFull}) {
    if (s == check::to_string(l)) {
      *out = l;
      return true;
    }
  }
  return false;
}

bool fail(RequestError* err, std::string code, std::string field,
          std::string message) {
  if (err != nullptr) {
    err->code = std::move(code);
    err->field = std::move(field);
    err->message = std::move(message);
  }
  return false;
}

/// Exact non-negative integer stored in a JSON double (seeds up to 2^53
/// round-trip losslessly; larger seeds must be sent as decimal strings,
/// mirroring the run report's lossless-seed convention).
bool as_uint64(const Value& v, uint64_t* out) {
  if (v.type() == Value::Type::kString) {
    const std::string& s = v.as_string();
    if (s.empty()) return false;
    uint64_t acc = 0;
    for (char c : s) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (acc > (UINT64_MAX - digit) / 10) return false;
      acc = acc * 10 + digit;
    }
    *out = acc;
    return true;
  }
  if (v.type() != Value::Type::kNumber) return false;
  const double d = v.as_number();
  if (d < 0.0 || d > 9007199254740992.0 ||
      d != static_cast<double>(static_cast<uint64_t>(d))) {
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

}  // namespace

bool parse_request(const Value& v, Request* out, RequestError* err) {
  if (!v.is_object()) {
    return fail(err, "bad-type", "", "request must be a JSON object");
  }
  Request r;
  bool saw_type = false;
  for (const auto& [key, field] : v.members()) {
    if (key == "type") {
      if (field.type() != Value::Type::kString || field.as_string() != "run") {
        return fail(err, "bad-value", "type", "expected \"run\"");
      }
      saw_type = true;
    } else if (key == "bench") {
      if (field.type() != Value::Type::kString ||
          !parse_bench(field.as_string(), &r.bench)) {
        return fail(err, "bad-value", "bench",
                    "expected one of FPU, AES, LDPC, DES, M256");
      }
    } else if (key == "style") {
      if (field.type() != Value::Type::kString ||
          !parse_style(field.as_string(), &r.style)) {
        return fail(err, "bad-value", "style",
                    "expected one of 2D, T-MI, T-MI+M");
      }
    } else if (key == "node") {
      if (field.type() != Value::Type::kString ||
          !parse_node(field.as_string(), &r.node)) {
        return fail(err, "bad-value", "node", "expected 45nm or 7nm");
      }
    } else if (key == "clock_ns") {
      if (field.type() != Value::Type::kNumber || field.as_number() < 0.0 ||
          field.as_number() > 1e6) {
        return fail(err, "bad-value", "clock_ns",
                    "expected a number in [0, 1e6] (0 = auto)");
      }
      r.clock_ns = field.as_number();
    } else if (key == "seed") {
      if (!as_uint64(field, &r.seed)) {
        return fail(err, "bad-value", "seed",
                    "expected a non-negative integer (or decimal string)");
      }
    } else if (key == "scale_shift") {
      if (field.type() != Value::Type::kNumber ||
          field.as_number() != static_cast<double>(
                                   static_cast<int>(field.as_number())) ||
          field.as_number() < -1.0 || field.as_number() > 16.0) {
        return fail(err, "bad-value", "scale_shift",
                    "expected an integer in [-1, 16] (-1 = bench default)");
      }
      r.scale_shift = static_cast<int>(field.as_number());
    } else if (key == "target_util") {
      if (field.type() != Value::Type::kNumber) {
        return fail(err, "bad-value", "target_util", "expected a number");
      }
      const double u = field.as_number();
      if (u != -1.0 && (u < 0.05 || u > 1.0)) {
        return fail(err, "bad-value", "target_util",
                    "expected -1 (bench default) or a value in [0.05, 1]");
      }
      r.target_util = u;
    } else if (key == "check_level") {
      if (field.type() != Value::Type::kString ||
          !parse_check_level(field.as_string(), &r.check_level)) {
        return fail(err, "bad-value", "check_level",
                    "expected none, basic or full");
      }
    } else if (key == "progress") {
      if (field.type() != Value::Type::kBool) {
        return fail(err, "bad-value", "progress", "expected a boolean");
      }
      r.progress = field.as_bool();
    } else if (key == "hold_ms") {
      if (field.type() != Value::Type::kNumber || field.as_number() < 0.0 ||
          field.as_number() > static_cast<double>(kMaxHoldMs)) {
        return fail(err, "bad-value", "hold_ms",
                    util::strf("expected a number in [0, %lld]",
                               static_cast<long long>(kMaxHoldMs)));
      }
      r.hold_ms = static_cast<int64_t>(field.as_number());
    } else {
      return fail(err, "unknown-field", key,
                  util::strf("unknown request field \"%s\"", key.c_str()));
    }
  }
  if (!saw_type) {
    return fail(err, "missing-field", "type", "request lacks \"type\"");
  }
  *out = r;
  return true;
}

Request resolve_defaults(const Request& r) {
  Request out = r;
  const flow::FlowOptions defaults = flow::preset(r.bench, r.node);
  if (out.scale_shift < 0) out.scale_shift = defaults.scale_shift;
  if (out.target_util < 0.0) out.target_util = defaults.target_util;
  return out;
}

Value request_to_json(const Request& r_in) {
  const Request r = resolve_defaults(r_in);
  Value v = Value::object();
  v.set("type", Value::str("run"));
  v.set("bench", Value::str(gen::to_string(r.bench)));
  v.set("node", Value::str(tech::to_string(r.node)));
  v.set("style", Value::str(tech::to_string(r.style)));
  v.set("clock_ns", Value::number(r.clock_ns));
  // Lossless decimal string, like the run report's "seed" field.
  v.set("seed", Value::str(util::strf(
                    "%llu", static_cast<unsigned long long>(r.seed))));
  v.set("scale_shift", Value::number(r.scale_shift));
  v.set("target_util", Value::number(r.target_util));
  v.set("check_level", Value::str(check::to_string(r.check_level)));
  v.set("hold_ms", Value::number(static_cast<double>(r.hold_ms)));
  // `progress` is delivery-only: it changes what the client sees on the
  // wire, not what the flow computes, so it is not part of the identity.
  return v;
}

std::string request_canonical(const Request& r) {
  return request_to_json(r).dump(-1);
}

uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t request_key(const Request& r) {
  return fnv1a64(request_canonical(r));
}

std::string key_hex(uint64_t key) {
  return util::strf("%016llx", static_cast<unsigned long long>(key));
}

Value make_error(const std::string& code, const std::string& message,
                 const std::string& field) {
  Value v = Value::object();
  v.set("type", Value::str("error"));
  v.set("code", Value::str(code));
  if (!field.empty()) v.set("field", Value::str(field));
  v.set("message", Value::str(message));
  return v;
}

Value make_busy(int64_t retry_after_ms, int queue_depth) {
  Value v = Value::object();
  v.set("type", Value::str("busy"));
  v.set("retry_after_ms",
        Value::number(static_cast<double>(retry_after_ms)));
  v.set("queue_depth", Value::number(queue_depth));
  return v;
}

Value make_progress(const std::string& id, const std::string& stage,
                    int index, double wall_ms) {
  Value v = Value::object();
  v.set("type", Value::str("progress"));
  v.set("id", Value::str(id));
  v.set("stage", Value::str(stage));
  v.set("index", Value::number(index));
  v.set("wall_ms", Value::number(wall_ms));
  return v;
}

Value make_result(const std::string& id, bool cached, bool coalesced,
                  Value report) {
  Value v = Value::object();
  v.set("type", Value::str("result"));
  v.set("id", Value::str(id));
  v.set("cached", Value::boolean(cached));
  v.set("coalesced", Value::boolean(coalesced));
  v.set("report", std::move(report));
  return v;
}

Value make_pong() {
  Value v = Value::object();
  v.set("type", Value::str("pong"));
  v.set("version", Value::str(kProtocolVersion));
  return v;
}

std::string encode_frame(const std::string& payload) {
  std::string out = util::strf("%zu\n", payload.size());
  out += payload;
  out += '\n';
  return out;
}

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kFrame: return "frame";
    case FrameStatus::kNeedMore: return "need-more";
    case FrameStatus::kTooLarge: return "too-large";
    case FrameStatus::kMalformed: return "malformed";
  }
  return "?";
}

FrameStatus FrameDecoder::next(std::string* payload) {
  if (poisoned_) return poison_status_;
  auto poison = [&](FrameStatus why) {
    poisoned_ = true;
    poison_status_ = why;
    return why;
  };
  // Skip blank separator lines between line-framed payloads.
  size_t start = 0;
  while (start < buf_.size() &&
         (buf_[start] == '\n' || buf_[start] == '\r')) {
    ++start;
  }
  if (start > 0) buf_.erase(0, start);
  if (buf_.empty()) return FrameStatus::kNeedMore;

  const char first = buf_[0];
  if (std::isdigit(static_cast<unsigned char>(first)) != 0) {
    // Length-framed: "<decimal>\n<payload>\n".
    const size_t eol = buf_.find('\n');
    if (eol == std::string::npos) {
      // A header longer than 20 digits can never be a valid size.
      return buf_.size() > 20 ? poison(FrameStatus::kMalformed)
                              : FrameStatus::kNeedMore;
    }
    uint64_t len = 0;
    for (size_t i = 0; i < eol; ++i) {
      const char c = buf_[i];
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
        return poison(FrameStatus::kMalformed);
      }
      len = len * 10 + static_cast<uint64_t>(c - '0');
      if (len > (1ULL << 40)) return poison(FrameStatus::kTooLarge);
    }
    if (len > max_bytes_) return poison(FrameStatus::kTooLarge);
    if (buf_.size() < eol + 1 + len) return FrameStatus::kNeedMore;
    *payload = buf_.substr(eol + 1, static_cast<size_t>(len));
    buf_.erase(0, eol + 1 + static_cast<size_t>(len));
    return FrameStatus::kFrame;
  }
  if (first == '{') {
    // Line-framed: one newline-free JSON document per line.
    const size_t eol = buf_.find('\n');
    if (eol == std::string::npos) {
      return buf_.size() > max_bytes_ ? poison(FrameStatus::kTooLarge)
                                      : FrameStatus::kNeedMore;
    }
    if (eol > max_bytes_) return poison(FrameStatus::kTooLarge);
    *payload = buf_.substr(0, eol);
    buf_.erase(0, eol + 1);
    return FrameStatus::kFrame;
  }
  return poison(FrameStatus::kMalformed);
}

}  // namespace m3d::serve
