#include "ha/replication.hpp"

#include <optional>

#include "core/wire.hpp"
#include "util/error.hpp"

namespace ps::ha {

using core::wire::Reader;
using core::wire::Tag;
using core::wire::Writer;

HaMessageKind ha_message_kind(std::string_view payload) {
  const std::optional<Tag> tag = core::wire::peek_tag(payload);
  if (!tag) {
    return HaMessageKind::kUnknown;
  }
  switch (*tag) {
    case Tag::kHaSync:
      return HaMessageKind::kSync;
    case Tag::kHaUpdate:
      return HaMessageKind::kUpdate;
    case Tag::kHaHeartbeat:
      return HaMessageKind::kHeartbeat;
    case Tag::kHaAck:
      return HaMessageKind::kAck;
    default:
      return HaMessageKind::kUnknown;
  }
}

std::string serialize(const HaSyncRequest& message) {
  Writer out(Tag::kHaSync);
  out.varint(message.fence_epoch);
  return std::move(out).take();
}

std::string serialize(const HaStateUpdate& message) {
  Writer out(Tag::kHaUpdate);
  out.varint(message.fence_epoch);
  out.varint(message.rounds);
  out.string(net::serialize(message.state));
  return std::move(out).take();
}

std::string serialize(const HaHeartbeat& message) {
  Writer out(Tag::kHaHeartbeat);
  out.varint(message.fence_epoch);
  out.varint(message.rounds);
  return std::move(out).take();
}

std::string serialize(const HaAck& message) {
  Writer out(Tag::kHaAck);
  out.varint(message.rounds);
  return std::move(out).take();
}

HaSyncRequest parse_sync_request(std::string_view payload) {
  Reader in(payload, Tag::kHaSync);
  HaSyncRequest message;
  message.fence_epoch = in.varint();
  in.finish();
  return message;
}

HaStateUpdate parse_state_update(std::string_view payload) {
  Reader in(payload, Tag::kHaUpdate);
  HaStateUpdate message;
  message.fence_epoch = in.varint();
  message.rounds = in.varint();
  // A complete snapshot serialization; its own CRC-32 trailer guards the
  // state bytes end to end.
  message.state = net::parse_snapshot(in.blob());
  in.finish();
  PS_REQUIRE(message.state.fence_epoch == message.fence_epoch,
             "ha update fence disagrees with its state");
  PS_REQUIRE(message.state.allocations == message.rounds,
             "ha update rounds disagree with its state");
  return message;
}

HaHeartbeat parse_heartbeat(std::string_view payload) {
  Reader in(payload, Tag::kHaHeartbeat);
  HaHeartbeat message;
  message.fence_epoch = in.varint();
  message.rounds = in.varint();
  in.finish();
  return message;
}

HaAck parse_ack(std::string_view payload) {
  Reader in(payload, Tag::kHaAck);
  HaAck message;
  message.rounds = in.varint();
  in.finish();
  return message;
}

}  // namespace ps::ha
