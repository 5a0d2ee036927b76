// Fuzz harness for the fleet wire protocol (src/fleet/protocol.*).
//
// The input is treated as one frame payload and driven through every
// decoder. The contract under test:
//
//   1. No decoder may crash, hang, or read out of bounds on arbitrary
//      bytes — malformed input must surface as ProtocolError, nothing
//      else escapes.
//   2. Encoding is canonical: any payload that decodes successfully
//      must re-encode to exactly the bytes it came from (decode is a
//      bijection onto the set of valid frames). Floats are memcpy'd
//      bit copies in both directions, so this holds for NaNs too.
//
// Built two ways from this one file:
//   - fleet_protocol_fuzz: clang-only, -fsanitize=fuzzer,address, the
//     real coverage-guided fuzzer (CI runs it for 60 s per push).
//   - fleet_protocol_fuzz_replay: every compiler, a plain main() that
//     replays the checked-in corpus (tests/fuzz/corpus) as a ctest
//     test, so GCC-only environments still execute every regression
//     input through the exact harness the fuzzer uses. With
//     --write-seeds <dir> it emits the seed corpus instead.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/protocol.hpp"

namespace {

using taglets::fleet::MsgType;
using taglets::fleet::ProtocolError;

// Re-encode a successfully decoded message and demand byte identity
// with the payload it was decoded from. A mismatch is a real bug (a
// field silently dropped, re-ordered, or widened) and must crash so
// the fuzzer reports it.
void check_roundtrip(const std::vector<std::uint8_t>& payload,
                     const std::vector<std::uint8_t>& reencoded,
                     const char* what) {
  if (payload == reencoded) return;
  std::fprintf(stderr,
               "fleet_protocol_fuzz: %s round-trip mismatch "
               "(in=%zu bytes, out=%zu bytes)\n",
               what, payload.size(), reencoded.size());
  __builtin_trap();
}

void fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> payload(data, data + size);

  // peek_type on arbitrary bytes: may throw, must not crash.
  try {
    (void)taglets::fleet::peek_type(payload);
  } catch (const ProtocolError&) {
  }

  // Every decoder sees every input. Each checks its own type byte, so
  // for a given payload at most one can succeed; running all twelve
  // keeps coverage independent of the type byte the mutator happened
  // to pick.
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_predict_request(payload)),
                    "PredictRequest");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_predict_response(payload)),
                    "PredictResponse");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(
        payload, taglets::fleet::encode(taglets::fleet::decode_ping(payload)),
        "Ping");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(
        payload, taglets::fleet::encode(taglets::fleet::decode_pong(payload)),
        "Pong");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_reload_request(payload)),
                    "ReloadRequest");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_reload_response(payload)),
                    "ReloadResponse");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_trace_export_request(payload)),
                    "TraceExportRequest");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_trace_export_response(payload)),
                    "TraceExportResponse");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_metrics_request(payload)),
                    "MetricsRequest");
  } catch (const ProtocolError&) {
  }
  try {
    check_roundtrip(payload,
                    taglets::fleet::encode(
                        taglets::fleet::decode_metrics_response(payload)),
                    "MetricsResponse");
  } catch (const ProtocolError&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(data, size);
  return 0;
}

#ifdef TAGLETS_FUZZ_REPLAY_MAIN
// ------------------------------------------------- corpus replay driver
//
//   fleet_protocol_fuzz_replay <file-or-dir>...   replay inputs
//   fleet_protocol_fuzz_replay --write-seeds DIR  emit the seed corpus
//
// Replay runs each input through fuzz_one exactly as libFuzzer would;
// any crash the fuzzer would have caught crashes here too.
#include <filesystem>
#include <fstream>

namespace {

namespace fs = std::filesystem;
namespace fleet = taglets::fleet;

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// One well-formed frame per message type, plus hostile variants
// (truncations, an unknown type byte, a length field pointing past the
// end) so the corpus starts with both sides of every branch.
int write_seeds(const fs::path& dir) {
  fs::create_directories(dir);

  fleet::PredictRequest predict_req;
  predict_req.id = 42;
  predict_req.routing_key = 7;
  predict_req.deadline_ms = 125.0;
  predict_req.trace_id = 9;
  predict_req.parent_span = 3;
  predict_req.features = {0.25f, -1.5f, 3.75f, 0.0f};
  write_seed(dir, "predict_request", fleet::encode(predict_req));

  fleet::PredictResponse predict_resp;
  predict_resp.id = 42;
  predict_resp.status = fleet::Status::kOk;
  predict_resp.label = 2;
  predict_resp.confidence = 0.875f;
  predict_resp.class_name = "zebra";
  predict_resp.shard_ms = 1.5;
  predict_resp.queue_wait_ms = 0.25;
  predict_resp.compute_ms = 1.0;
  write_seed(dir, "predict_response", fleet::encode(predict_resp));

  fleet::Ping ping;
  ping.seq = 11;
  write_seed(dir, "ping", fleet::encode(ping));

  fleet::Pong pong;
  pong.seq = 11;
  pong.model_version = 3;
  pong.queue_depth = 5;
  pong.queue_capacity = 64;
  pong.requests_ok = 1000;
  pong.requests_rejected = 2;
  pong.requests_deadline_missed = 1;
  pong.draining = 1;
  write_seed(dir, "pong", fleet::encode(pong));

  fleet::ReloadRequest reload_req;
  reload_req.path = "/models/v3.bin";
  write_seed(dir, "reload_request", fleet::encode(reload_req));

  fleet::ReloadResponse reload_resp;
  reload_resp.ok = 1;
  reload_resp.model_version = 3;
  reload_resp.message = "";
  write_seed(dir, "reload_response", fleet::encode(reload_resp));

  // Types 7 and 8 are reserved (the retired Stats frames); these two
  // seeds keep their old bytes and now drive the reject path.
  write_seed(dir, "stats_request", {7});
  fleet::FrameWriter stats_resp;
  stats_resp.u8(8);
  stats_resp.str("{\"requests\":{\"ok\":1000}}");
  write_seed(dir, "stats_response", stats_resp.take());

  write_seed(dir, "trace_export_request",
             fleet::encode(fleet::TraceExportRequest{}));

  fleet::TraceExportResponse trace_resp;
  fleet::ProcessTrace proc;
  proc.pid = 1234;
  proc.name = "shard-0";
  proc.now_us = 5000.0;
  proc.align_offset_us = -12.5;
  proc.dropped = 1;
  fleet::WireSpan span;
  span.name = "serve.batch";
  span.tid = 2;
  span.ts_us = 100.0;
  span.dur_us = 40.0;
  span.depth = 1;
  span.attrs = {{"claimed", "8"}};
  proc.spans.push_back(span);
  trace_resp.processes.push_back(proc);
  write_seed(dir, "trace_export_response", fleet::encode(trace_resp));

  write_seed(dir, "metrics_request", fleet::encode(fleet::MetricsRequest{}));

  fleet::MetricsResponse metrics_resp;
  taglets::obs::MetricsSnapshot snap;
  snap.source = "shard-0";
  snap.meta = {{"endpoint", "127.0.0.1:7001"}, {"health", "alive"}};
  snap.counters.push_back({"serve.requests_ok", 1000});
  snap.gauges.push_back({"serve.queue_depth", 5.0});
  taglets::obs::MetricsSnapshot::HistogramEntry hist;
  hist.name = "serve.latency_ms";
  hist.snap.bounds = {1.0, 5.0};
  hist.snap.counts = {2, 1, 0};  // decode demands bounds + 1 buckets
  hist.snap.count = 3;
  hist.snap.sum = 4.5;
  snap.histograms.push_back(hist);
  metrics_resp.snapshots.push_back(snap);
  write_seed(dir, "metrics_response", fleet::encode(metrics_resp));

  // Hostile variants.
  std::vector<std::uint8_t> truncated = fleet::encode(predict_req);
  truncated.resize(truncated.size() / 2);
  write_seed(dir, "predict_request_truncated", truncated);

  std::vector<std::uint8_t> bad_type = fleet::encode(ping);
  bad_type[0] = 0xEE;
  write_seed(dir, "unknown_type", bad_type);

  std::vector<std::uint8_t> lying_length = fleet::encode(reload_req);
  // The string length field sits right after the type byte; point it
  // far past the end of the payload.
  lying_length[1] = 0xFF;
  lying_length[2] = 0xFF;
  write_seed(dir, "reload_request_lying_length", lying_length);

  write_seed(dir, "empty", {});
  write_seed(dir, "single_byte_type_only", {0x01});

  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++count;
  }
  std::printf("wrote %zu seeds to %s\n", count, dir.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--write-seeds") {
    return write_seeds(argv[2]);
  }
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const fs::path path(argv[i]);
    std::vector<fs::path> inputs;
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::directory_iterator(path)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else if (fs::is_regular_file(path)) {
      inputs.push_back(path);
    } else {
      std::fprintf(stderr, "fleet_protocol_fuzz_replay: no such input: %s\n",
                   argv[i]);
      return 1;
    }
    for (const fs::path& input : inputs) {
      const std::vector<std::uint8_t> bytes = read_file(input);
      fuzz_one(bytes.data(), bytes.size());
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr,
                 "usage: fleet_protocol_fuzz_replay <file-or-dir>... | "
                 "--write-seeds DIR\n");
    return 1;
  }
  std::printf("replayed %zu inputs, no crashes\n", replayed);
  return 0;
}
#endif  // TAGLETS_FUZZ_REPLAY_MAIN
