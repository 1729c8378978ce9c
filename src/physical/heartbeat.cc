#include "src/physical/heartbeat.h"

#include <array>

namespace guillotine {

namespace {
// The MACed body: direction byte, then the send time (u64 LE).
std::array<u8, 9> Body(bool console_to_hv, Cycles sent_at) {
  std::array<u8, 9> body{};
  body[0] = console_to_hv ? 1 : 0;
  for (size_t i = 0; i < 8; ++i) {
    body[1 + i] = static_cast<u8>(sent_at >> (8 * i));
  }
  return body;
}

HmacKey HeartbeatKey(std::string_view shared_key) {
  const Sha256Digest key = Sha256::Hash(shared_key);
  return HmacKey(std::span<const u8>(key.data(), key.size()));
}
}  // namespace

HeartbeatMonitor::HeartbeatMonitor(const HeartbeatConfig& config, SimClock& clock,
                                   Rng& rng, std::string_view shared_key)
    : config_(config), clock_(clock), rng_(rng), key_(HeartbeatKey(shared_key)) {}

HeartbeatMessage HeartbeatMonitor::Seal(Cycles sent_at, bool console_to_hv) const {
  HeartbeatMessage message;
  message.console_to_hv = console_to_hv;
  message.sent_at = sent_at;
  message.tag = key_.Mac(Body(console_to_hv, sent_at));
  return message;
}

void HeartbeatMonitor::Receive(const HeartbeatMessage& message) {
  if (!DigestEqual(message.tag, key_.Mac(Body(message.console_to_hv, message.sent_at)))) {
    ++lost_;
    return;
  }
  if (message.console_to_hv) {
    hv_last_rx_ = message.sent_at;
  } else {
    console_last_rx_ = message.sent_at;
  }
}

void HeartbeatMonitor::SendOne(Cycles now, bool console_to_hv) {
  ++sent_;
  if (!link_up_ || (config_.loss_rate > 0.0 && rng_.NextBool(config_.loss_rate))) {
    ++lost_;
    return;
  }
  Receive(Seal(now, console_to_hv));
}

void HeartbeatMonitor::Tick() {
  const Cycles now = clock_.now();
  if (config_.loss_rate <= 0.0 && next_send_ <= now) {
    // Without per-message loss draws, only the final exchange's timestamp
    // is observable, so skipped periods are accounted in bulk. This keeps
    // catching up with large actuation jumps (Immolation burns ~1e10
    // cycles, a Decapitation repair ~1e12) O(1) instead of O(gap/period).
    const u64 pending = (now - next_send_) / config_.period + 1;
    if (pending > 1) {
      sent_ += 2 * (pending - 1);
      if (!link_up_) {
        lost_ += 2 * (pending - 1);
      }
      next_send_ += (pending - 1) * config_.period;
    }
  }
  while (next_send_ <= now) {
    SendOne(next_send_, /*console_to_hv=*/true);
    SendOne(next_send_, /*console_to_hv=*/false);
    next_send_ += config_.period;
  }
  if (expired_) {
    return;
  }
  if (now > console_last_rx_ + config_.timeout) {
    expired_ = true;
    if (on_expiry_) {
      on_expiry_("console lost hypervisor heartbeat");
    }
    return;
  }
  if (now > hv_last_rx_ + config_.timeout) {
    expired_ = true;
    if (on_expiry_) {
      on_expiry_("hypervisor lost console heartbeat");
    }
  }
}

void HeartbeatMonitor::Reset() {
  expired_ = false;
  const Cycles now = clock_.now();
  console_last_rx_ = now;
  hv_last_rx_ = now;
  next_send_ = now + config_.period;
}

}  // namespace guillotine
