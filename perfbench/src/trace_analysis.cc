// Per-layer numbers rebuilt from the protocol tracer and the send tap.

#include <algorithm>
#include <unordered_map>

#include "bench.h"
#include "protocol/wire_codec.h"

namespace dcp::perfbench {

void RoundTracker::Feed(const std::vector<obs::TraceEvent>& events) {
  for (const obs::TraceEvent& e : events) {
    if (e.cat != "rpc") {
      // Network fault instants can sit between the sends of one
      // multicast; anything else ends the run of begins.
      if (e.cat != "net") prev_was_begin_ = false;
      continue;
    }
    if (e.phase == 'b') {
      size_t slot;
      if (prev_was_begin_ && prev_pid_ == e.pid && prev_type_ == e.name) {
        slot = prev_group_;
      } else {
        if (free_groups_.empty()) {
          slot = groups_.size();
          groups_.push_back({});
        } else {
          slot = free_groups_.back();
          free_groups_.pop_back();
        }
        groups_[slot] = Group{e.name, e.ts, e.ts, 0};
      }
      ++groups_[slot].open;
      span_group_[e.id] = slot;
      prev_was_begin_ = true;
      prev_pid_ = e.pid;
      prev_type_ = e.name;
      prev_group_ = slot;
    } else if (e.phase == 'e') {
      prev_was_begin_ = false;
      auto it = span_group_.find(e.id);
      if (it == span_group_.end()) continue;  // Began before tracing.
      Group& g = groups_[it->second];
      g.end = std::max(g.end, e.ts);
      if (--g.open == 0) {
        rounds_[g.type].push_back(g.end - g.begin);
        free_groups_.push_back(it->second);
      }
      span_group_.erase(it);
    }
  }
}

namespace {

/// The public wire codec run on one message: frame bytes (payload plus
/// the transport's 4-byte length prefix) and host encode/decode time.
struct CodecCost {
  size_t bytes = 0;
  double encode_us = 0;
  double decode_us = 0;
};

CodecCost MeasureCodec(const net::Message& m) {
  const Clock::time_point a = Clock::now();
  const std::vector<uint8_t> buf = protocol::EncodeMessage(m);
  const Clock::time_point b = Clock::now();
  net::Message decoded;
  protocol::DecodeMessage(buf.data(), buf.size(), &decoded);
  const Clock::time_point c = Clock::now();
  CodecCost cost;
  cost.bytes = buf.size() + 4;
  cost.encode_us = std::chrono::duration<double, std::micro>(b - a).count();
  cost.decode_us = std::chrono::duration<double, std::micro>(c - b).count();
  return cost;
}

/// Request send to reply send, in the records' time unit.
std::vector<double> MatchRpcs(const std::vector<TapRecord>& records) {
  std::unordered_map<uint64_t, double> sent;
  std::vector<double> rtts;
  for (const TapRecord& r : records) {
    if (r.request) {
      sent[(uint64_t{r.src} << 44) | r.rpc_id] = r.t_ms;
    } else if (r.response) {
      auto it = sent.find((uint64_t{r.dst} << 44) | r.rpc_id);
      if (it == sent.end()) continue;
      rtts.push_back(r.t_ms - it->second);
      sent.erase(it);
    }
  }
  return rtts;
}

}  // namespace

void SendTap::Observe(const net::Message& m) {
  if (!on.load(std::memory_order_relaxed)) return;
  TapRecord r;
  r.t_ms = now_ms();
  r.src = m.src;
  r.dst = m.dst;
  r.rpc_id = m.rpc_id;
  r.request = m.kind == net::Message::Kind::kRequest;
  r.response = m.kind == net::Message::Kind::kResponse;
  const bool wire = m.src != m.dst;
  const CodecCost cost = wire ? MeasureCodec(m) : CodecCost{};
  std::lock_guard<std::mutex> lock(mu);
  records.push_back(r);
  ++msgs;
  if (wire) {
    ++wire_msgs;
    wire_bytes += cost.bytes;
    encode_us += cost.encode_us;
    decode_us += cost.decode_us;
  }
}

void AddTraceMetrics(const RoundTracker& tracker, const SendTap& tap,
                     double n_ops, std::map<std::string, double>* layer) {
  static const std::pair<const char*, const char*> kRounds[] = {
      {"lock", "protocol.lock_round_ms_p50"},
      {"2pc-prepare", "protocol.prepare_round_ms_p50"},
      {"2pc-commit", "protocol.commit_round_ms_p50"},
      {"fetch", "protocol.fetch_round_ms_p50"},
  };
  for (const auto& [type, metric] : kRounds) {
    auto it = tracker.rounds().find(type);
    (*layer)[metric] = it == tracker.rounds().end() ? 0 : Median(it->second);
  }
  std::vector<double> rtts = MatchRpcs(tap.records);
  (*layer)["net.rpc_rtt_ms_p50"] = Percentile(&rtts, 50);
  (*layer)["net.rpc_rtt_ms_p99"] = Percentile(&rtts, 99);
  (*layer)["net.msgs_per_op"] = static_cast<double>(tap.msgs) / n_ops;
  const double wire_msgs = static_cast<double>(tap.wire_msgs);
  (*layer)["runtime.wire_bytes_per_op"] =
      static_cast<double>(tap.wire_bytes) / n_ops;
  (*layer)["runtime.encode_us_per_msg"] =
      wire_msgs > 0 ? tap.encode_us / wire_msgs : 0;
  (*layer)["runtime.decode_us_per_msg"] =
      wire_msgs > 0 ? tap.decode_us / wire_msgs : 0;
}

}  // namespace dcp::perfbench
