#include "hw/msr.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::hw {

namespace {
std::vector<MsrAccessEntry> default_allowlist() {
  // Mirrors the msr-safe allowlist entries needed for RAPL management:
  // the power-unit and power-info registers are read-only; the package
  // power-limit register exposes its limit/enable fields; the energy
  // counter is read-only from software.
  return {
      {msr::kRaplPowerUnit, 0x0},
      {msr::kPkgPowerLimit, 0x00ffffffffffffffULL},
      {msr::kPkgEnergyStatus, 0x0},
      {msr::kPkgPowerInfo, 0x0},
  };
}

std::string hex_address(std::uint32_t address) {
  std::ostringstream out;
  out << "0x" << std::hex << address;
  return out.str();
}

[[noreturn]] void throw_unlisted(std::uint32_t address) {
  throw NotFound("MSR " + hex_address(address) + " is not allowlisted");
}
}  // namespace

std::vector<MsrAccessEntry> parse_msr_allowlist(std::string_view text) {
  std::vector<MsrAccessEntry> entries;
  std::size_t line_number = 0;
  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    const std::size_t comment = line.find('#');
    if (comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    line = util::trim(line);
    if (line.empty()) {
      continue;
    }
    std::istringstream fields{std::string(line)};
    std::string address_text;
    std::string mask_text;
    std::string excess;
    fields >> address_text >> mask_text;
    PS_REQUIRE(!address_text.empty() && !mask_text.empty(),
               "allowlist line " + std::to_string(line_number) +
                   " needs 'address writemask'");
    PS_REQUIRE(!(fields >> excess), "allowlist line " +
                                        std::to_string(line_number) +
                                        " has trailing fields");
    MsrAccessEntry entry;
    try {
      entry.address = static_cast<std::uint32_t>(
          std::stoull(address_text, nullptr, 0));
      entry.write_mask = std::stoull(mask_text, nullptr, 0);
    } catch (const std::exception&) {
      throw InvalidArgument("allowlist line " +
                            std::to_string(line_number) +
                            " is not numeric: '" + std::string(line) + "'");
    }
    const bool duplicate = std::any_of(
        entries.begin(), entries.end(), [&](const MsrAccessEntry& seen) {
          return seen.address == entry.address;
        });
    PS_REQUIRE(!duplicate, "allowlist line " + std::to_string(line_number) +
                               " duplicates " + hex_address(entry.address));
    entries.push_back(entry);
  }
  return entries;
}

MsrFile::MsrFile() : MsrFile(default_allowlist()) {}

MsrFile::MsrFile(std::vector<MsrAccessEntry> allowlist) {
  registers_.reserve(allowlist.size());
  for (const MsrAccessEntry& entry : allowlist) {
    registers_.push_back({entry.address, true, entry.write_mask, 0});
  }
}

MsrFile::Register* MsrFile::find(std::uint32_t address) noexcept {
  const auto it = std::ranges::find(registers_, address, &Register::address);
  return it == registers_.end() ? nullptr : &*it;
}

const MsrFile::Register* MsrFile::find(std::uint32_t address) const noexcept {
  const auto it = std::ranges::find(registers_, address, &Register::address);
  return it == registers_.end() ? nullptr : &*it;
}

std::uint64_t MsrFile::read(std::uint32_t address) const {
  const Register* reg = find(address);
  if (reg == nullptr || !reg->listed) {
    throw_unlisted(address);
  }
  return reg->value;
}

void MsrFile::write(std::uint32_t address, std::uint64_t value) {
  Register* reg = find(address);
  if (reg == nullptr || !reg->listed) {
    throw_unlisted(address);
  }
  if (reg->write_mask == 0) {
    throw NotFound("MSR " + hex_address(address) + " is read-only");
  }
  reg->value = (reg->value & ~reg->write_mask) | (value & reg->write_mask);
}

void MsrFile::hw_store(std::uint32_t address, std::uint64_t value) {
  if (Register* reg = find(address)) {
    reg->value = value;
  } else {
    registers_.push_back({address, false, 0, value});
  }
}

std::uint64_t MsrFile::hw_load(std::uint32_t address) const noexcept {
  const Register* reg = find(address);
  return reg == nullptr ? 0 : reg->value;
}

std::size_t MsrFile::hw_slot(std::uint32_t address) {
  if (const Register* reg = find(address)) {
    return static_cast<std::size_t>(reg - registers_.data());
  }
  registers_.push_back({address, false, 0, 0});
  return registers_.size() - 1;
}

bool MsrFile::is_readable(std::uint32_t address) const noexcept {
  const Register* reg = find(address);
  return reg != nullptr && reg->listed;
}

bool MsrFile::is_writable(std::uint32_t address) const noexcept {
  const Register* reg = find(address);
  return reg != nullptr && reg->listed && reg->write_mask != 0;
}

}  // namespace ps::hw
