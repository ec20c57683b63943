#include "net/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/wire.hpp"
#include "net/framing.hpp"
#include "util/error.hpp"

namespace ps::net {

namespace {

/// Smallest encoding of one job: name 2 + sequence 1 + one cap 9 + empty
/// GPU caps 1.
constexpr std::size_t kMinJobBytes = 13;

/// Bits of the flags byte.
constexpr std::uint8_t kBarrierMet = 1;
constexpr std::uint8_t kBudgetEmergency = 2;

}  // namespace

double DaemonSnapshot::allocated_watts() const {
  double total = 0.0;
  for (const SnapshotJob& job : jobs) {
    for (const double cap : job.caps_watts) {
      total += cap;
    }
    for (const double cap : job.gpu_caps_watts) {
      total += cap;
    }
  }
  return total;
}

std::string serialize(const DaemonSnapshot& snapshot) {
  core::wire::Writer out(core::wire::Tag::kSnapshot);
  out.f64(snapshot.system_budget_watts);
  out.varint(snapshot.budget_epoch);
  out.varint(snapshot.fence_epoch);
  out.byte(static_cast<std::uint8_t>(
      (snapshot.launch_barrier_met ? kBarrierMet : 0) |
      (snapshot.budget_emergency ? kBudgetEmergency : 0)));
  out.varint(snapshot.allocations);
  out.varint(snapshot.jobs.size());
  for (const SnapshotJob& job : snapshot.jobs) {
    out.string(job.name);
    out.varint(job.sequence);
    out.f64s(job.caps_watts);
    out.f64s(job.gpu_caps_watts);
  }
  out.u32(crc32(out.bytes()));
  return std::move(out).take();
}

DaemonSnapshot parse_snapshot(std::string_view bytes) {
  core::wire::Reader in(bytes, core::wire::Tag::kSnapshot);
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = in.watts();
  PS_REQUIRE(snapshot.system_budget_watts > 0.0,
             "snapshot budget must be positive");
  snapshot.budget_epoch = in.varint();
  snapshot.fence_epoch = in.varint();
  const std::uint8_t flags = in.byte();
  PS_REQUIRE((flags & ~(kBarrierMet | kBudgetEmergency)) == 0,
             "snapshot flags carry an unknown bit");
  snapshot.launch_barrier_met = (flags & kBarrierMet) != 0;
  snapshot.budget_emergency = (flags & kBudgetEmergency) != 0;
  snapshot.allocations = in.varint();
  const std::uint64_t job_count = in.count(kMinJobBytes);
  snapshot.jobs.reserve(job_count);
  std::set<std::string> seen;
  for (std::uint64_t j = 0; j < job_count; ++j) {
    SnapshotJob job;
    job.name = in.name();
    PS_REQUIRE(seen.insert(job.name).second,
               "duplicate job '" + job.name + "' in snapshot");
    job.sequence = in.varint();
    job.caps_watts = in.watts_vector();
    PS_REQUIRE(!job.caps_watts.empty(),
               "job '" + job.name + "' has no caps");
    job.gpu_caps_watts = in.watts_vector();
    PS_REQUIRE(job.gpu_caps_watts.empty() ||
                   job.gpu_caps_watts.size() == job.caps_watts.size(),
               "job '" + job.name +
                   "' GPU caps disagree with its host count");
    snapshot.jobs.push_back(std::move(job));
  }
  // The CRC-32 trailer guards every byte before it.
  const std::size_t body_bytes = bytes.size() - in.remaining();
  const std::uint32_t expected = in.u32();
  in.finish();
  PS_REQUIRE(crc32(bytes.substr(0, body_bytes)) == expected,
             "snapshot checksum mismatch (torn or corrupted write)");
  return snapshot;
}

void save_snapshot(const std::string& path,
                   const DaemonSnapshot& snapshot) {
  PS_REQUIRE(!path.empty(), "snapshot path must not be empty");
  const std::string body = serialize(snapshot);
  const std::string temp = path + ".tmp";
  {
    const int fd = ::open(temp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) {
      throw Error("cannot open snapshot temp file " + temp);
    }
    std::size_t written = 0;
    while (written < body.size()) {
      const ssize_t n =
          ::write(fd, body.data() + written, body.size() - written);
      if (n < 0) {
        ::close(fd);
        ::unlink(temp.c_str());
        throw Error("cannot write snapshot temp file " + temp);
      }
      written += static_cast<std::size_t>(n);
    }
    // The rename below is only atomic on durable contents.
    ::fsync(fd);
    ::close(fd);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    throw Error("cannot rename snapshot into place at " + path);
  }
}

std::optional<DaemonSnapshot> load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  try {
    return parse_snapshot(contents.str());
  } catch (const Error&) {
    return std::nullopt;  // corrupt snapshot: restart cold, do not crash
  }
}

}  // namespace ps::net
