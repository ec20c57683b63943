#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ps::hw {

/// Well-known MSR addresses used by the RAPL simulation (Intel SDM names).
namespace msr {
inline constexpr std::uint32_t kRaplPowerUnit = 0x606;
inline constexpr std::uint32_t kPkgPowerLimit = 0x610;
inline constexpr std::uint32_t kPkgEnergyStatus = 0x611;
inline constexpr std::uint32_t kPkgPowerInfo = 0x614;
}  // namespace msr

/// Access control entry mirroring msr-safe's allowlist semantics: a register
/// is readable if listed, and only the bits in `write_mask` are writable.
struct MsrAccessEntry {
  std::uint32_t address = 0;
  std::uint64_t write_mask = 0;
};

/// Parses an msr-safe-style allowlist:
///
///   # comment
///   0x606 0x0000000000000000   # MSR_RAPL_POWER_UNIT (read-only)
///   0x610 0x00FFFFFFFFFFFFFF   # MSR_PKG_POWER_LIMIT
///
/// One "address writemask" pair per line; blank lines and '#' comments are
/// ignored. Throws ps::InvalidArgument on malformed or duplicate entries.
[[nodiscard]] std::vector<MsrAccessEntry> parse_msr_allowlist(
    std::string_view text);

/// Simulated per-package MSR file with msr-safe-style access control.
///
/// This is the lowest layer of the hardware substitution: RAPL domains are
/// implemented on top of these registers exactly as the real driver stack
/// (msr-safe -> libmsr/GEOPM PlatformIO) layers on real MSRs, including the
/// 32-bit wrapping energy counter.
///
/// Registers live in one flat array, allowlisted ones first in allowlist
/// order, so a lookup is a short linear scan with no hashing (a RAPL
/// package uses four registers). Copies are independent values.
class MsrFile {
 public:
  /// Constructs with the default allowlist (RAPL registers, as msr-safe
  /// ships for power management use).
  MsrFile();

  explicit MsrFile(std::vector<MsrAccessEntry> allowlist);

  /// Reads a 64-bit register. Throws ps::NotFound if not allowlisted.
  [[nodiscard]] std::uint64_t read(std::uint32_t address) const;

  /// Writes the writable bits of a register; non-writable bits of `value`
  /// are ignored (as msr-safe masks them). Throws ps::NotFound if the
  /// register is not allowlisted or has an empty write mask.
  void write(std::uint32_t address, std::uint64_t value);

  /// Backdoor used by the hardware model itself (not subject to the
  /// allowlist) — e.g. the package updating its own energy counter.
  void hw_store(std::uint32_t address, std::uint64_t value);
  [[nodiscard]] std::uint64_t hw_load(std::uint32_t address) const noexcept;

  /// The backdoor by slot, for a register the hardware model touches on
  /// every step: hw_slot finds the register once (creating it as hw_store
  /// would), and the slot then names it for the file's life and in every
  /// copy of the file, since registers are only ever appended.
  [[nodiscard]] std::size_t hw_slot(std::uint32_t address);
  [[nodiscard]] std::uint64_t hw_load_slot(std::size_t slot) const noexcept {
    return registers_[slot].value;
  }
  void hw_store_slot(std::size_t slot, std::uint64_t value) noexcept {
    registers_[slot].value = value;
  }

  [[nodiscard]] bool is_readable(std::uint32_t address) const noexcept;
  [[nodiscard]] bool is_writable(std::uint32_t address) const noexcept;

 private:
  /// One register slot. The allowlist's entries come first; addresses the
  /// hardware stores off the allowlist are appended with `listed` false.
  /// A slot that was never stored holds 0, as an unwritten register reads.
  struct Register {
    std::uint32_t address = 0;
    bool listed = false;
    std::uint64_t write_mask = 0;
    std::uint64_t value = 0;
  };

  [[nodiscard]] Register* find(std::uint32_t address) noexcept;
  [[nodiscard]] const Register* find(std::uint32_t address) const noexcept;

  std::vector<Register> registers_;
};

}  // namespace ps::hw
