// Seeded mutation fuzzer over every binary parser: the five coordination
// messages, the four HA messages and the daemon snapshot. The corpus is
// the round-trip corpus of the codec tests; every payload is truncated
// at every length, has every bit of every byte flipped, has a varint of
// up to 2^64 - 1 spliced in at every offset, and takes seeded random
// byte and varint mutations (PS_FAULT_SEED picks the seed; CI runs it
// under ASan/UBSan at several seeds).
//
// Property: each input either throws ps::Error, or parses to a message
// that re-serializes to exactly the input bytes. No other exception
// type escapes, and no single allocation made while parsing exceeds a
// fixed multiple of the payload size — a count that escaped its bounds
// check would ask for gigabytes.
//
// This file replaces the global operator new to measure allocations, so
// it is built as its own test binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/endpoint.hpp"
#include "core/wire.hpp"
#include "ha/replication.hpp"
#include "net/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

/// Allocation ceiling while a parse runs (0 = not tracking). A request
/// above it is refused with std::bad_alloc and remembered.
thread_local std::size_t g_allocation_limit = 0;
thread_local std::size_t g_refused_allocation = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_allocation_limit != 0 && size > g_allocation_limit) {
    g_refused_allocation = size;
    throw std::bad_alloc();
  }
  if (void* memory = std::malloc(size == 0 ? 1 : size)) {
    return memory;
  }
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// call to operator new it would take for the standard one.
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace ps {
namespace {

/// A decoded message may be larger than its encoding: a rack-policy job
/// is a 104-byte PolicyMessage decoded from as few as 15 bytes. Eight
/// bytes per payload byte covers every message in the grammar; the
/// constant covers an error's message string on a tiny payload.
constexpr std::size_t kDecodedBytesPerPayloadByte = 8;
constexpr std::size_t kAllocationSlackBytes = 4096;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("PS_FAULT_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 11;  // the default fixed seed; CI also runs 29, 47 and a random
}

/// Parses `bytes` as one message kind and re-serializes the result.
using Reparse = std::function<std::string(std::string_view)>;

struct Kind {
  const char* name;
  Reparse reparse;
  std::vector<std::string> corpus;
};

core::SampleMessage cpu_sample(const std::string& job, std::uint64_t seq) {
  core::SampleMessage sample;
  sample.sequence = seq;
  sample.job_name = job;
  sample.min_settable_cap_watts = 152.0 + 1.0 / 3.0;
  sample.host_observed_watts = {214.0001220703125, 0.1 + 0.2};
  sample.host_needed_watts = {193.09999999999999, 7.0 / 9.0};
  return sample;
}

core::SampleMessage gpu_sample(const std::string& job, std::uint64_t seq) {
  core::SampleMessage sample = cpu_sample(job, seq);
  sample.gpu_min_cap_watts = 100.0 + 1.0 / 7.0;
  sample.gpu_tdp_watts = 300.0;
  sample.host_gpu_observed_watts = {120.5, 0.0};
  sample.host_gpu_needed_watts = {250.0 / 3.0, 0.0};
  sample.sla_class = sim::SlaClass::kLatencyCritical;
  return sample;
}

core::PolicyMessage policy(const std::string& job, std::uint64_t seq,
                           bool gpu) {
  core::PolicyMessage message;
  message.sequence = seq;
  message.job_name = job;
  message.host_caps_watts = {180.0 + 1.0 / 7.0, 152.0};
  if (gpu) {
    message.host_gpu_caps_watts = {206.375, 100.0};
  }
  message.budget_epoch = 3;
  message.fence_epoch = 2;
  return message;
}

net::DaemonSnapshot snapshot(std::uint64_t fence) {
  net::DaemonSnapshot state;
  state.system_budget_watts = 2'880.0;
  state.budget_epoch = 3;
  state.fence_epoch = fence;
  state.launch_barrier_met = true;
  state.allocations = 17;
  net::SnapshotJob a;
  a.name = "a-wasteful";
  a.sequence = 17;
  a.caps_watts = {543.0 / 7.0, 181.25};
  a.gpu_caps_watts = {800.0 / 7.0, 215.375};
  net::SnapshotJob b;
  b.name = "b-hungry";
  b.sequence = 16;
  b.caps_watts = {152.0};
  state.jobs = {a, b};
  return state;
}

std::vector<Kind> kinds() {
  core::RackSampleMessage rack_sample;
  rack_sample.rack = "rack7";
  rack_sample.samples = {cpu_sample("a-wasteful", 11),
                         gpu_sample("b-hungry", 12)};
  rack_sample.round = 12;

  core::RackPolicyMessage rack_policy;
  rack_policy.rack = "rack7";
  rack_policy.policies = {policy("a-wasteful", 11, false),
                          policy("b-hungry", 12, true)};
  rack_policy.round = 12;
  for (const core::PolicyMessage& message : rack_policy.policies) {
    for (const double cap : message.host_caps_watts) {
      rack_policy.rack_budget_watts += cap;
    }
    for (const double cap : message.host_gpu_caps_watts) {
      rack_policy.rack_budget_watts += cap;
    }
  }

  ha::HaStateUpdate update;
  update.state = snapshot(2);
  update.fence_epoch = 2;
  update.rounds = update.state.allocations;

  return {
      {"sample",
       [](std::string_view b) {
         return core::serialize(core::parse_sample_message(b));
       },
       {core::serialize(cpu_sample("lulesh-512", 7)),
        core::serialize(gpu_sample("hetero", 41))}},
      {"policy",
       [](std::string_view b) {
         return core::serialize(core::parse_policy_message(b));
       },
       {core::serialize(policy("lulesh", 9, false)),
        core::serialize(policy("hetero", 42, true))}},
      {"budget",
       [](std::string_view b) {
         return core::serialize(core::parse_budget_message(b));
       },
       {core::serialize(core::BudgetMessage{42, 2'877.3341077281243, true})}},
      {"rack-sample",
       [](std::string_view b) {
         return core::serialize(core::parse_rack_sample_message(b));
       },
       {core::serialize(rack_sample)}},
      {"rack-policy",
       [](std::string_view b) {
         return core::serialize(core::parse_rack_policy_message(b));
       },
       {core::serialize(rack_policy)}},
      {"snapshot",
       [](std::string_view b) {
         return net::serialize(net::parse_snapshot(b));
       },
       {net::serialize(snapshot(0)), net::serialize(snapshot(4))}},
      {"ha-sync",
       [](std::string_view b) {
         return ha::serialize(ha::parse_sync_request(b));
       },
       {ha::serialize(ha::HaSyncRequest{3}),
        ha::serialize(ha::HaSyncRequest{1ull << 40})}},
      {"ha-update",
       [](std::string_view b) {
         return ha::serialize(ha::parse_state_update(b));
       },
       {ha::serialize(update)}},
      {"ha-heartbeat",
       [](std::string_view b) {
         return ha::serialize(ha::parse_heartbeat(b));
       },
       {ha::serialize(ha::HaHeartbeat{2, 300})}},
      {"ha-ack",
       [](std::string_view b) { return ha::serialize(ha::parse_ack(b)); },
       {ha::serialize(ha::HaAck{41})}},
  };
}

std::string varint_bytes(std::uint64_t value) {
  core::wire::Writer out(core::wire::Tag::kSample);
  out.varint(value);
  return out.bytes().substr(1);
}

/// Checks the property on one input; returns false (after recording a
/// failure) when it does not hold.
bool check_input(const Kind& kind, const std::string& input,
                 const std::string& how) {
  std::string out;
  g_refused_allocation = 0;
  g_allocation_limit =
      kDecodedBytesPerPayloadByte * input.size() + kAllocationSlackBytes;
  try {
    out = kind.reparse(input);
  } catch (const Error&) {
    g_allocation_limit = 0;
    return true;
  } catch (const std::bad_alloc&) {
    g_allocation_limit = 0;
    ADD_FAILURE() << kind.name << " " << how << ": parse asked for "
                  << g_refused_allocation << " bytes on a " << input.size()
                  << "-byte payload";
    return false;
  } catch (const std::exception& error) {
    g_allocation_limit = 0;
    ADD_FAILURE() << kind.name << " " << how
                  << ": non-ps::Error exception: " << error.what();
    return false;
  }
  g_allocation_limit = 0;
  if (out != input) {
    ADD_FAILURE() << kind.name << " " << how
                  << ": parsed, but re-serializes to different bytes";
    return false;
  }
  return true;
}

/// Runs `mutate` over every corpus payload of every kind, stopping a
/// kind at its first failure so one defect does not flood the log.
void for_each_payload(
    const std::function<bool(const Kind&, const std::string&)>& mutate) {
  for (const Kind& kind : kinds()) {
    for (const std::string& payload : kind.corpus) {
      if (!mutate(kind, payload)) {
        break;
      }
    }
  }
}

TEST(WireFuzzTest, CorpusRoundTripsExactly) {
  for_each_payload([](const Kind& kind, const std::string& payload) {
    return check_input(kind, payload, "unmutated");
  });
}

TEST(WireFuzzTest, EveryTruncationThrowsOrRoundTrips) {
  for_each_payload([](const Kind& kind, const std::string& payload) {
    for (std::size_t length = 0; length < payload.size(); ++length) {
      if (!check_input(kind, payload.substr(0, length),
                       "truncated to " + std::to_string(length))) {
        return false;
      }
    }
    return true;
  });
}

TEST(WireFuzzTest, EveryBitFlipThrowsOrRoundTrips) {
  for_each_payload([](const Kind& kind, const std::string& payload) {
    for (std::size_t index = 0; index < payload.size(); ++index) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        std::string input = payload;
        input[index] = static_cast<char>(
            static_cast<unsigned char>(input[index]) ^ (1u << bit));
        if (!check_input(kind, input,
                         "byte " + std::to_string(index) + " bit " +
                             std::to_string(bit) + " flipped")) {
          return false;
        }
      }
    }
    return true;
  });
}

TEST(WireFuzzTest, InflatedVarintsThrowOrRoundTrip) {
  // Every count, length and integer field in the corpus is a one-byte
  // varint; replacing the byte at each offset with a wide varint hits
  // each of them, up to the largest 64-bit value.
  const std::vector<std::uint64_t> values = {
      0x80, 0x4000, 1ull << 32, 1ull << 62, ~std::uint64_t{0}};
  for_each_payload([&values](const Kind& kind, const std::string& payload) {
    for (std::size_t index = 0; index < payload.size(); ++index) {
      for (const std::uint64_t value : values) {
        const std::string input = payload.substr(0, index) +
                                  varint_bytes(value) +
                                  payload.substr(index + 1);
        if (!check_input(kind, input,
                         "varint " + std::to_string(value) + " at " +
                             std::to_string(index))) {
          return false;
        }
      }
    }
    return true;
  });
}

TEST(WireFuzzTest, SeededMutationsThrowOrRoundTrip) {
  const std::uint64_t seed = fuzz_seed();
  std::cout << "[ PS_FAULT_SEED ] " << seed << "\n";
  util::Rng rng(seed);
  constexpr int kMutationsPerPayload = 2000;
  for_each_payload([&rng, seed](const Kind& kind,
                                const std::string& payload) {
    for (int m = 0; m < kMutationsPerPayload; ++m) {
      std::string input = payload;
      // One to three edits: overwrite a random byte, splice in a varint
      // of random width, or cut the tail.
      const std::uint64_t edits = 1 + rng.uniform_index(3);
      for (std::uint64_t e = 0; e < edits && !input.empty(); ++e) {
        const std::size_t at = rng.uniform_index(input.size());
        switch (rng.uniform_index(3)) {
          case 0:
            input[at] = static_cast<char>(rng.uniform_index(256));
            break;
          case 1:
            input = input.substr(0, at) +
                    varint_bytes(rng.next() >> rng.uniform_index(64)) +
                    input.substr(at + 1);
            break;
          default:
            input.resize(at);
            break;
        }
      }
      if (!check_input(kind, input,
                       "seed " + std::to_string(seed) + " mutation " +
                           std::to_string(m))) {
        return false;
      }
    }
    return true;
  });
}

}  // namespace
}  // namespace ps
