// Wire protocol of the serving fleet (docs/FLEET.md). Every message —
// client → frontend, frontend → shard, and the control/heartbeat
// traffic between them — travels as one length-prefixed binary frame:
//
//   uint32 payload_length (little-endian) | payload
//   payload = uint8 message type | type-specific body
//
// Integers are fixed-width little-endian, floats are IEEE-754 bit
// copies, strings and float arrays are length-prefixed. Encoding is
// deterministic (the same message always produces the same bytes) and
// decoding validates every length against the frame it arrived in, so
// a truncated or hostile frame raises ProtocolError instead of reading
// out of bounds. The frame length itself is capped (kMaxFrameBytes) to
// bound what one connection can make a peer buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace taglets::fleet {

/// Hard upper bound on one frame's payload; admission control for the
/// transport itself (a 4096-dim float request is ~16 KiB, so this
/// leaves three orders of magnitude of headroom).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Thrown on any malformed, truncated, or oversized frame.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("fleet protocol: " + what) {}
};

/// Payload discriminator, first byte of every frame.
enum class MsgType : std::uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kPing = 3,
  kPong = 4,
  kReloadRequest = 5,
  kReloadResponse = 6,
  // 7 and 8 are reserved: they carried the retired Stats JSON frames
  // (superseded by Metrics, 11/12). peek_type rejects them, so every
  // decoder and dispatch switch raises ProtocolError on them.
  kTraceExportRequest = 9,
  kTraceExportResponse = 10,
  kMetricsRequest = 11,
  kMetricsResponse = 12,
};

/// Terminal outcome of one fleet request, superset of the shard-local
/// serve::Status: the fleet adds outcomes that only exist once there is
/// routing (no live replica) and cross-process backpressure.
enum class Status : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,        // every candidate replica is saturated
  kUnavailable = 2,       // no Alive/Suspect replica reachable
  kDeadlineExceeded = 3,  // shard-side deadline miss
  kError = 4,             // model execution / decode failure
  kShutdown = 5,          // shard or frontend stopping
};

/// Stable lowercase name ("ok", "overloaded", ...).
const char* status_name(Status status);

// ----------------------------------------------------------- messages

struct PredictRequest {
  std::uint64_t id = 0;           // caller-chosen; echoed in the response
  std::uint64_t routing_key = 0;  // consistent-hash key (e.g. user id)
  double deadline_ms = 0.0;       // per-request deadline, <= 0 = none
  std::uint64_t trace_id = 0;     // distributed trace context; 0 = none
                                  // (the frontend assigns one if so)
  std::uint64_t parent_span = 0;  // caller-side span id, 0 = root
  std::vector<float> features;    // rank-1 input of the model's dim
};

struct PredictResponse {
  std::uint64_t id = 0;
  Status status = Status::kError;
  std::uint32_t label = 0;
  float confidence = 0.0f;
  std::string class_name;
  std::string error;       // diagnostic for kError
  double shard_ms = 0.0;   // shard-side admission -> response
  // Latency decomposition of shard_ms, so the frontend can attribute
  // time to queue vs compute vs network (network = frontend-observed
  // total minus shard_ms).
  double queue_wait_ms = 0.0;  // admission -> batch dispatch
  double compute_ms = 0.0;     // batch dispatch -> response ready
};

/// Heartbeat probe. `seq` must be echoed in the matching Pong.
struct Ping {
  std::uint64_t seq = 0;
};

/// Heartbeat reply carrying the shard's load so the frontend's health
/// and backpressure decisions ride on data the shard already has.
struct Pong {
  std::uint64_t seq = 0;
  std::uint64_t model_version = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_deadline_missed = 0;
  std::uint8_t draining = 0;  // mid model-swap
};

/// Hot model swap: validate the ServableModel at `path`, then flip.
struct ReloadRequest {
  std::string path;
};

struct ReloadResponse {
  std::uint8_t ok = 0;
  std::uint64_t model_version = 0;  // active version after the attempt
  std::string message;              // failure reason, or "" on success
};

/// One finished span pulled from a remote process's tracer buffer.
/// Timestamps are microseconds on the *producer's* tracer epoch; the
/// collector maps them into its own epoch via ProcessTrace's offset.
struct WireSpan {
  std::string name;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t depth = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// One process's span buffer plus what the collector needs to merge it:
/// the real pid and process name for per-process trace lanes, the
/// producer's tracer clock reading (`now_us`, taken while answering the
/// export) for ping-RTT-midpoint clock alignment, and the dropped count
/// so truncation is never silent.
struct ProcessTrace {
  std::uint32_t pid = 0;
  std::string name;              // obs::process_name() of the producer
  double now_us = 0.0;           // producer's tracer clock at export
  double align_offset_us = 0.0;  // collector-filled: add to every ts_us
                                 // to land on the collector's epoch
  std::uint64_t dropped = 0;     // spans lost to buffer cap/frame budget
  std::vector<WireSpan> spans;
};

/// Pull the peer's span buffer (frontend -> shard, or client ->
/// frontend, where the frontend answers with every process's trace).
struct TraceExportRequest {};

struct TraceExportResponse {
  std::vector<ProcessTrace> processes;
};

/// Pull the peer's structured metrics surface. A shard answers with its
/// own registry snapshot; a frontend answers with its own snapshot plus
/// one per reachable shard, each labeled and annotated (endpoint,
/// health, flaps, version).
struct MetricsRequest {};

struct MetricsResponse {
  std::vector<obs::MetricsSnapshot> snapshots;
};

// ------------------------------------------------- encoding / decoding

/// Appends fixed-width little-endian scalars and length-prefixed blobs.
class FrameWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);             // u32 length + bytes
  void floats(const std::vector<float>& v);   // u32 count + raw floats

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads the same encoding back; every accessor throws ProtocolError
/// on underflow instead of reading past the payload.
class FrameReader {
 public:
  explicit FrameReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  std::string str();
  std::vector<float> floats();

  std::size_t remaining() const { return buf_.size() - pos_; }
  /// Throws ProtocolError when payload bytes are left over (a frame
  /// must be consumed exactly).
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// First byte of a payload; throws on an empty, unknown-typed, or
/// reserved-typed (7, 8) frame.
MsgType peek_type(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode(const PredictRequest& m);
std::vector<std::uint8_t> encode(const PredictResponse& m);
std::vector<std::uint8_t> encode(const Ping& m);
std::vector<std::uint8_t> encode(const Pong& m);
std::vector<std::uint8_t> encode(const ReloadRequest& m);
std::vector<std::uint8_t> encode(const ReloadResponse& m);
std::vector<std::uint8_t> encode(const TraceExportRequest& m);
std::vector<std::uint8_t> encode(const TraceExportResponse& m);
std::vector<std::uint8_t> encode(const MetricsRequest& m);
std::vector<std::uint8_t> encode(const MetricsResponse& m);

/// Each decode checks the type byte and consumes the payload exactly.
PredictRequest decode_predict_request(const std::vector<std::uint8_t>& p);
PredictResponse decode_predict_response(const std::vector<std::uint8_t>& p);
Ping decode_ping(const std::vector<std::uint8_t>& p);
Pong decode_pong(const std::vector<std::uint8_t>& p);
ReloadRequest decode_reload_request(const std::vector<std::uint8_t>& p);
ReloadResponse decode_reload_response(const std::vector<std::uint8_t>& p);
TraceExportRequest decode_trace_export_request(
    const std::vector<std::uint8_t>& p);
TraceExportResponse decode_trace_export_response(
    const std::vector<std::uint8_t>& p);
MetricsRequest decode_metrics_request(const std::vector<std::uint8_t>& p);
MetricsResponse decode_metrics_response(const std::vector<std::uint8_t>& p);

}  // namespace taglets::fleet
