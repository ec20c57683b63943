#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/snapshot.hpp"

namespace ps::ha {

/// The hot-standby replication protocol. Like the client protocol it is
/// the binary wire grammar (core/wire.hpp) carried in CRC-guarded frames
/// (net::encode_frame / net::FrameDecoder), so a corrupted update is
/// rejected at the framing layer before the codec ever sees it:
///
///   sync       tag 7, varint fence
///   update     tag 8, varint fence, varint rounds, string state
///   heartbeat  tag 9, varint fence, varint rounds
///   ack        tag 10, varint rounds
///
/// The update's state is the daemon's snapshot serialization — including
/// the snapshot's own CRC-32 trailer — so replicated state is guarded
/// twice and a standby applies exactly the bytes a restarted primary
/// would have read from disk.
///
/// Message flow (standby dials the primary's replication listener):
///   standby -> primary   sync       "send me your full state"
///   primary -> standby   update     full state snapshot + fence + rounds
///   primary -> standby   heartbeat  fence + rounds, between updates
///   standby -> primary   ack        rounds last applied
///
/// The primary counts on acks for its fencing decision (no acks for half
/// a lease => stop allocating); the standby counts on updates/heartbeats
/// for its promotion decision (no traffic for a full lease => promote at
/// fence + 1). Both directions therefore carry the fencing epoch, and a
/// standby rejects any message fenced below the highest it has seen — a
/// zombie primary cannot roll replicated state backwards.

enum class HaMessageKind {
  kSync,
  kUpdate,
  kHeartbeat,
  kAck,
  kUnknown,
};

/// Classifies a frame payload by its tag byte (cheap dispatch; the
/// matching parse_* call does full validation).
[[nodiscard]] HaMessageKind ha_message_kind(std::string_view payload);

/// standby -> primary: request a full state update. Carries the highest
/// fence the standby has ever seen so a superseded primary can tell it
/// has been replaced.
struct HaSyncRequest {
  std::uint64_t fence_epoch = 0;
};

/// primary -> standby: the primary's full coordination state. The fence
/// and rounds fields are echoed outside the embedded snapshot so the
/// standby can validate internal consistency (a mismatch means the
/// message was assembled wrong, not merely corrupted in flight).
struct HaStateUpdate {
  std::uint64_t fence_epoch = 0;
  std::uint64_t rounds = 0;  ///< The snapshot's allocation count.
  net::DaemonSnapshot state;
};

/// primary -> standby: liveness between state changes.
struct HaHeartbeat {
  std::uint64_t fence_epoch = 0;
  std::uint64_t rounds = 0;
};

/// standby -> primary: the newest state the standby holds. Acks are what
/// keep an engaged primary unfenced.
struct HaAck {
  std::uint64_t rounds = 0;
};

[[nodiscard]] std::string serialize(const HaSyncRequest& message);
[[nodiscard]] std::string serialize(const HaStateUpdate& message);
[[nodiscard]] std::string serialize(const HaHeartbeat& message);
[[nodiscard]] std::string serialize(const HaAck& message);

/// Parsers throw ps::Error on malformed input; the receiver's contract
/// is to refuse the payload and keep its previous state.
[[nodiscard]] HaSyncRequest parse_sync_request(std::string_view payload);
[[nodiscard]] HaStateUpdate parse_state_update(std::string_view payload);
[[nodiscard]] HaHeartbeat parse_heartbeat(std::string_view payload);
[[nodiscard]] HaAck parse_ack(std::string_view payload);

}  // namespace ps::ha
