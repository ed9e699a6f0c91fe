// m3d_serve wire protocol: framed JSON request/response documents plus the
// strict request schema and its canonical form.
//
// Framing. A frame is one JSON document, encoded either way on the wire:
//
//   * length-framed:  "<decimal byte count>\n<payload bytes>\n" — the
//     trailing newline is part of the frame but not of the payload, so
//     captures stay line-readable;
//   * line-framed:    a payload whose first byte is '{', terminated by the
//     first '\n' (netcat-friendly; payloads must then be newline-free,
//     which every compact-dumped document is).
//
// FrameDecoder accepts both forms, enforces a byte limit on either, and
// reports malformed input as a structured status instead of desyncing —
// the server answers with an "error" document and drops the connection.
//
// Requests. The one work-carrying request type is "run": a flow request
// (bench x style x clock_ns x seed x check_level x scale_shift x
// target_util). Parsing is strict: unknown fields, wrong types and
// out-of-domain values are rejected with a structured RequestError naming
// the field, so client typos never silently run a default flow.
// "ping", "stats" and "shutdown" are control requests handled by the
// server directly.
//
// Canonical form. request_canonical() resolves every optional field to its
// effective value (per-bench default scale/utilization, named enums) and
// dumps a fixed-order compact JSON document; request_key() is the FNV-1a
// 64-bit hash of that string. Two requests that would execute identical
// flows — whether fields were spelled out or defaulted — share one key.
// The key is the coalescing identity, the response-cache filename and the
// `id` echoed in every reply. See DESIGN.md "Serve request keys" for the
// forward-compatibility contract with the content-addressed store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "check/check.hpp"
#include "gen/gen.hpp"
#include "tech/tech.hpp"
#include "util/json.hpp"

namespace m3d::serve {

/// Protocol identifier echoed by ping replies and cache files.
inline constexpr const char* kProtocolVersion = "m3d.serve/v1";

/// Default inbound frame limit (requests are tiny; anything bigger is a
/// client bug or abuse). Responses are not limited — reports are large.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// Upper bound for Request::hold_ms (an ops/test knob, not a flow input).
inline constexpr int64_t kMaxHoldMs = 10000;

// ---------------------------------------------------------------------------
// Request schema.

/// One validated "run" request. Fields mirror the FlowOptions the service
/// builds; -1 sentinels mean "resolve the per-bench default" and are
/// resolved before the canonical form is produced.
struct Request {
  gen::Bench bench = gen::Bench::kFpu;
  tech::Node node = tech::Node::k45nm;
  tech::Style style = tech::Style::k2D;
  double clock_ns = 0.0;   // 0: auto-clock (memoized in flow::WarmContext)
  uint64_t seed = 20130529;
  int scale_shift = -1;    // -1: flow::preset(bench, node).scale_shift
  double target_util = -1.0;  // -1: flow::preset(bench, node).target_util
  check::Level check_level = check::Level::kBasic;
  /// Stream stage-boundary progress frames before the final reply.
  bool progress = true;
  /// Hold the execution slot this many ms before running the flow. Lets
  /// operators and the CI smoke script create deterministic overload
  /// windows; capped at kMaxHoldMs. Part of the request identity.
  int64_t hold_ms = 0;
};

/// Structured validation failure: a stable machine-readable `code`
/// ("unknown-field", "bad-type", "bad-value", "missing-field"), the field
/// that failed, and a human-readable message.
struct RequestError {
  std::string code;
  std::string field;
  std::string message;
};

/// Parses and validates the "run" document `v` (the whole frame, including
/// its "type" field). Strict: any unknown member is an error. On failure
/// returns false and fills `*err`.
bool parse_request(const util::json::Value& v, Request* out, RequestError* err);

/// The request with every -1 sentinel resolved to its effective value.
Request resolve_defaults(const Request& r);

/// Fixed-field-order compact JSON of resolve_defaults(r) — the coalescing /
/// cache identity of the request.
util::json::Value request_to_json(const Request& r);
std::string request_canonical(const Request& r);

/// FNV-1a 64-bit hash of request_canonical(r).
uint64_t request_key(const Request& r);
uint64_t fnv1a64(const std::string& s);

/// Lower-case 16-digit hex of a key (cache filename stem, reply `id`).
std::string key_hex(uint64_t key);

// ---------------------------------------------------------------------------
// Response builders. Every reply carries "type"; run-request replies also
// carry "id" (the request key hex).

util::json::Value make_error(const std::string& code,
                             const std::string& message,
                             const std::string& field = "");
util::json::Value make_busy(int64_t retry_after_ms, int queue_depth);
util::json::Value make_progress(const std::string& id,
                                const std::string& stage, int index,
                                double wall_ms);
/// `report` is the canonical run-report document (adopted).
util::json::Value make_result(const std::string& id, bool cached,
                              bool coalesced, util::json::Value report);
util::json::Value make_pong();

// ---------------------------------------------------------------------------
// Framing.

/// Length-framed encoding of one payload ("<len>\n<payload>\n").
std::string encode_frame(const std::string& payload);

enum class FrameStatus {
  kFrame,      // one complete payload extracted
  kNeedMore,   // no complete frame buffered yet
  kTooLarge,   // declared or actual size exceeds the limit
  kMalformed,  // header is neither a length line nor a '{' line
};

const char* to_string(FrameStatus status);

/// Incremental frame extractor: feed() appends raw bytes, next() pops one
/// payload per call. After kTooLarge/kMalformed the stream is poisoned
/// (every next() repeats the status) — the connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_bytes = kDefaultMaxFrameBytes)
      : max_bytes_(max_bytes) {}

  void feed(const char* data, size_t len) { buf_.append(data, len); }
  FrameStatus next(std::string* payload);

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t pending() const { return buf_.size(); }

 private:
  size_t max_bytes_;
  std::string buf_;
  bool poisoned_ = false;
  FrameStatus poison_status_ = FrameStatus::kMalformed;
};

}  // namespace m3d::serve
