#include "fleet/protocol.hpp"

#include <cstring>

namespace taglets::fleet {

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kUnavailable: return "unavailable";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kError: return "error";
    case Status::kShutdown: return "shutdown";
  }
  return "unknown";
}

// ----------------------------------------------------------- FrameWriter

void FrameWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void FrameWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void FrameWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void FrameWriter::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void FrameWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void FrameWriter::str(const std::string& s) {
  if (s.size() > kMaxFrameBytes) throw ProtocolError("string too large");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void FrameWriter::floats(const std::vector<float>& v) {
  if (v.size() > kMaxFrameBytes / sizeof(float)) {
    throw ProtocolError("float array too large");
  }
  u32(static_cast<std::uint32_t>(v.size()));
  const std::size_t offset = buf_.size();
  buf_.resize(offset + v.size() * sizeof(float));
  if (!v.empty()) {
    std::memcpy(buf_.data() + offset, v.data(), v.size() * sizeof(float));
  }
}

// ----------------------------------------------------------- FrameReader

void FrameReader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n) throw ProtocolError("truncated frame");
}

std::uint8_t FrameReader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t FrameReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t FrameReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

float FrameReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double FrameReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string FrameReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> FrameReader::floats() {
  const std::uint32_t n = u32();
  need(static_cast<std::size_t>(n) * sizeof(float));
  std::vector<float> v(n);
  if (n != 0) {
    std::memcpy(v.data(), buf_.data() + pos_,
                static_cast<std::size_t>(n) * sizeof(float));
  }
  pos_ += static_cast<std::size_t>(n) * sizeof(float);
  return v;
}

void FrameReader::expect_end() const {
  if (remaining() != 0) throw ProtocolError("trailing bytes in frame");
}

// ------------------------------------------------------------- messages

MsgType peek_type(const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) throw ProtocolError("empty frame");
  const std::uint8_t t = payload.front();
  if (t < static_cast<std::uint8_t>(MsgType::kPredictRequest) ||
      t > static_cast<std::uint8_t>(MsgType::kMetricsResponse)) {
    throw ProtocolError("unknown message type " + std::to_string(t));
  }
  if (t == 7 || t == 8) {
    throw ProtocolError("reserved message type " + std::to_string(t));
  }
  return static_cast<MsgType>(t);
}

namespace {

/// Consumes and checks the type byte at the head of a payload.
FrameReader open(const std::vector<std::uint8_t>& payload, MsgType expected) {
  const MsgType got = peek_type(payload);
  if (got != expected) {
    throw ProtocolError("expected message type " +
                        std::to_string(static_cast<int>(expected)) + ", got " +
                        std::to_string(static_cast<int>(got)));
  }
  FrameReader reader(payload);
  reader.u8();  // type byte
  return reader;
}

Status decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(Status::kShutdown)) {
    throw ProtocolError("unknown status " + std::to_string(raw));
  }
  return static_cast<Status>(raw);
}

}  // namespace

std::vector<std::uint8_t> encode(const PredictRequest& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPredictRequest));
  w.u64(m.id);
  w.u64(m.routing_key);
  w.f64(m.deadline_ms);
  w.u64(m.trace_id);
  w.u64(m.parent_span);
  w.floats(m.features);
  return w.take();
}

PredictRequest decode_predict_request(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kPredictRequest);
  PredictRequest m;
  m.id = r.u64();
  m.routing_key = r.u64();
  m.deadline_ms = r.f64();
  m.trace_id = r.u64();
  m.parent_span = r.u64();
  m.features = r.floats();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const PredictResponse& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPredictResponse));
  w.u64(m.id);
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u32(m.label);
  w.f32(m.confidence);
  w.str(m.class_name);
  w.str(m.error);
  w.f64(m.shard_ms);
  w.f64(m.queue_wait_ms);
  w.f64(m.compute_ms);
  return w.take();
}

PredictResponse decode_predict_response(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kPredictResponse);
  PredictResponse m;
  m.id = r.u64();
  m.status = decode_status(r.u8());
  m.label = r.u32();
  m.confidence = r.f32();
  m.class_name = r.str();
  m.error = r.str();
  m.shard_ms = r.f64();
  m.queue_wait_ms = r.f64();
  m.compute_ms = r.f64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const Ping& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPing));
  w.u64(m.seq);
  return w.take();
}

Ping decode_ping(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kPing);
  Ping m;
  m.seq = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const Pong& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPong));
  w.u64(m.seq);
  w.u64(m.model_version);
  w.u32(m.queue_depth);
  w.u32(m.queue_capacity);
  w.u64(m.requests_ok);
  w.u64(m.requests_rejected);
  w.u64(m.requests_deadline_missed);
  w.u8(m.draining);
  return w.take();
}

Pong decode_pong(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kPong);
  Pong m;
  m.seq = r.u64();
  m.model_version = r.u64();
  m.queue_depth = r.u32();
  m.queue_capacity = r.u32();
  m.requests_ok = r.u64();
  m.requests_rejected = r.u64();
  m.requests_deadline_missed = r.u64();
  m.draining = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const ReloadRequest& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kReloadRequest));
  w.str(m.path);
  return w.take();
}

ReloadRequest decode_reload_request(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kReloadRequest);
  ReloadRequest m;
  m.path = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const ReloadResponse& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kReloadResponse));
  w.u8(m.ok);
  w.u64(m.model_version);
  w.str(m.message);
  return w.take();
}

ReloadResponse decode_reload_response(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kReloadResponse);
  ReloadResponse m;
  m.ok = r.u8();
  m.model_version = r.u64();
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const TraceExportRequest&) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceExportRequest));
  return w.take();
}

TraceExportRequest decode_trace_export_request(
    const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kTraceExportRequest);
  r.expect_end();
  return TraceExportRequest{};
}

std::vector<std::uint8_t> encode(const TraceExportResponse& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceExportResponse));
  w.u32(static_cast<std::uint32_t>(m.processes.size()));
  for (const ProcessTrace& proc : m.processes) {
    w.u32(proc.pid);
    w.str(proc.name);
    w.f64(proc.now_us);
    w.f64(proc.align_offset_us);
    w.u64(proc.dropped);
    w.u32(static_cast<std::uint32_t>(proc.spans.size()));
    for (const WireSpan& span : proc.spans) {
      w.str(span.name);
      w.u32(span.tid);
      w.f64(span.ts_us);
      w.f64(span.dur_us);
      w.u32(span.depth);
      w.u32(static_cast<std::uint32_t>(span.attrs.size()));
      for (const auto& [key, value] : span.attrs) {
        w.str(key);
        w.str(value);
      }
    }
  }
  return w.take();
}

TraceExportResponse decode_trace_export_response(
    const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kTraceExportResponse);
  TraceExportResponse m;
  // Counts come off the wire, so containers grow via push_back — the
  // per-read underflow checks bound a hostile count before it can
  // drive a huge allocation.
  const std::uint32_t n_procs = r.u32();
  for (std::uint32_t i = 0; i < n_procs; ++i) {
    ProcessTrace proc;
    proc.pid = r.u32();
    proc.name = r.str();
    proc.now_us = r.f64();
    proc.align_offset_us = r.f64();
    proc.dropped = r.u64();
    const std::uint32_t n_spans = r.u32();
    for (std::uint32_t s = 0; s < n_spans; ++s) {
      WireSpan span;
      span.name = r.str();
      span.tid = r.u32();
      span.ts_us = r.f64();
      span.dur_us = r.f64();
      span.depth = r.u32();
      const std::uint32_t n_attrs = r.u32();
      for (std::uint32_t a = 0; a < n_attrs; ++a) {
        std::string key = r.str();
        std::string value = r.str();
        span.attrs.emplace_back(std::move(key), std::move(value));
      }
      proc.spans.push_back(std::move(span));
    }
    m.processes.push_back(std::move(proc));
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const MetricsRequest&) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMetricsRequest));
  return w.take();
}

MetricsRequest decode_metrics_request(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kMetricsRequest);
  r.expect_end();
  return MetricsRequest{};
}

std::vector<std::uint8_t> encode(const MetricsResponse& m) {
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMetricsResponse));
  w.u32(static_cast<std::uint32_t>(m.snapshots.size()));
  for (const obs::MetricsSnapshot& snap : m.snapshots) {
    w.str(snap.source);
    w.u32(static_cast<std::uint32_t>(snap.meta.size()));
    for (const auto& [key, value] : snap.meta) {
      w.str(key);
      w.str(value);
    }
    w.u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto& c : snap.counters) {
      w.str(c.name);
      w.u64(c.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto& g : snap.gauges) {
      w.str(g.name);
      w.f64(g.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto& h : snap.histograms) {
      w.str(h.name);
      w.u32(static_cast<std::uint32_t>(h.snap.bounds.size()));
      for (const double b : h.snap.bounds) w.f64(b);
      w.u32(static_cast<std::uint32_t>(h.snap.counts.size()));
      for (const std::uint64_t c : h.snap.counts) w.u64(c);
      w.u64(h.snap.count);
      w.f64(h.snap.sum);
    }
  }
  return w.take();
}

MetricsResponse decode_metrics_response(const std::vector<std::uint8_t>& p) {
  FrameReader r = open(p, MsgType::kMetricsResponse);
  MetricsResponse m;
  const std::uint32_t n_snaps = r.u32();
  for (std::uint32_t i = 0; i < n_snaps; ++i) {
    obs::MetricsSnapshot snap;
    snap.source = r.str();
    const std::uint32_t n_meta = r.u32();
    for (std::uint32_t k = 0; k < n_meta; ++k) {
      std::string key = r.str();
      std::string value = r.str();
      snap.meta.emplace_back(std::move(key), std::move(value));
    }
    const std::uint32_t n_counters = r.u32();
    for (std::uint32_t k = 0; k < n_counters; ++k) {
      obs::MetricsSnapshot::CounterEntry e;
      e.name = r.str();
      e.value = r.u64();
      snap.counters.push_back(std::move(e));
    }
    const std::uint32_t n_gauges = r.u32();
    for (std::uint32_t k = 0; k < n_gauges; ++k) {
      obs::MetricsSnapshot::GaugeEntry e;
      e.name = r.str();
      e.value = r.f64();
      snap.gauges.push_back(std::move(e));
    }
    const std::uint32_t n_hists = r.u32();
    for (std::uint32_t k = 0; k < n_hists; ++k) {
      obs::MetricsSnapshot::HistogramEntry e;
      e.name = r.str();
      const std::uint32_t n_bounds = r.u32();
      for (std::uint32_t b = 0; b < n_bounds; ++b) {
        e.snap.bounds.push_back(r.f64());
      }
      const std::uint32_t n_counts = r.u32();
      for (std::uint32_t b = 0; b < n_counts; ++b) {
        e.snap.counts.push_back(r.u64());
      }
      e.snap.count = r.u64();
      e.snap.sum = r.f64();
      if (e.snap.counts.size() != e.snap.bounds.size() + 1) {
        throw ProtocolError("histogram '" + e.name +
                            "': counts must be bounds + 1");
      }
      snap.histograms.push_back(std::move(e));
    }
    m.snapshots.push_back(std::move(snap));
  }
  r.expect_end();
  return m;
}

}  // namespace taglets::fleet
