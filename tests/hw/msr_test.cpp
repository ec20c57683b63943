#include "hw/msr.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ps::hw {
namespace {

TEST(MsrFileTest, DefaultAllowlistExposesRaplRegisters) {
  const MsrFile msrs;
  EXPECT_TRUE(msrs.is_readable(msr::kRaplPowerUnit));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgPowerLimit));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgEnergyStatus));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgPowerInfo));
}

TEST(MsrFileTest, OnlyPowerLimitIsWritable) {
  const MsrFile msrs;
  EXPECT_TRUE(msrs.is_writable(msr::kPkgPowerLimit));
  EXPECT_FALSE(msrs.is_writable(msr::kRaplPowerUnit));
  EXPECT_FALSE(msrs.is_writable(msr::kPkgEnergyStatus));
  EXPECT_FALSE(msrs.is_writable(msr::kPkgPowerInfo));
}

TEST(MsrFileTest, ReadOfUnlistedRegisterThrows) {
  const MsrFile msrs;
  EXPECT_THROW(static_cast<void>(msrs.read(0x1a0)), NotFound);
}

TEST(MsrFileTest, WriteOfReadOnlyRegisterThrows) {
  MsrFile msrs;
  EXPECT_THROW(msrs.write(msr::kPkgEnergyStatus, 1), NotFound);
}

TEST(MsrFileTest, WriteOfUnlistedRegisterThrows) {
  MsrFile msrs;
  EXPECT_THROW(msrs.write(0x1a0, 1), NotFound);
}

TEST(MsrFileTest, WriteMaskProtectsReservedBits) {
  MsrFile msrs({{0x100, 0x00ffULL}});
  msrs.hw_store(0x100, 0xab00ULL);
  msrs.write(0x100, 0xffffULL);
  // Only the low byte is writable; the high byte keeps its value.
  EXPECT_EQ(msrs.read(0x100), 0xabffULL);
}

TEST(MsrFileTest, HwBackdoorBypassesAllowlist) {
  MsrFile msrs;
  msrs.hw_store(0x1a0, 0xdeadULL);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0xdeadULL);
  // Still not software-readable.
  EXPECT_THROW(static_cast<void>(msrs.read(0x1a0)), NotFound);
}

TEST(MsrFileTest, UnwrittenRegisterReadsZero) {
  const MsrFile msrs;
  EXPECT_EQ(msrs.hw_load(msr::kPkgEnergyStatus), 0u);
}

TEST(MsrFileTest, HwStoreOverwritesOffListAddressesIndependently) {
  MsrFile msrs;
  const std::uint32_t off_list[] = {0x0, 0x1a0, 0x1b1, 0x619, 0xffffffff};
  for (const std::uint32_t address : off_list) {
    msrs.hw_store(address, 0x1000ULL + address);
  }
  msrs.hw_store(0x1b1, 0xfeedULL);  // overwrite one in the middle
  msrs.hw_store(0x0, 0x0ULL);       // overwrite one back to zero
  EXPECT_EQ(msrs.hw_load(0x0), 0x0ULL);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0x11a0ULL);
  EXPECT_EQ(msrs.hw_load(0x1b1), 0xfeedULL);
  EXPECT_EQ(msrs.hw_load(0x619), 0x1619ULL);
  EXPECT_EQ(msrs.hw_load(0xffffffff), 0x1000ULL + 0xffffffffULL);
  for (const std::uint32_t address : off_list) {
    EXPECT_FALSE(msrs.is_readable(address));
    EXPECT_FALSE(msrs.is_writable(address));
    EXPECT_THROW(static_cast<void>(msrs.read(address)), NotFound);
  }
  // The backdoor stores left every allowlisted register unwritten.
  EXPECT_EQ(msrs.read(msr::kRaplPowerUnit), 0u);
  EXPECT_EQ(msrs.read(msr::kPkgPowerLimit), 0u);
  EXPECT_EQ(msrs.read(msr::kPkgEnergyStatus), 0u);
  EXPECT_EQ(msrs.read(msr::kPkgPowerInfo), 0u);
}

TEST(MsrFileTest, MaskedWriteMergesOverBackdoorStore) {
  MsrFile msrs;
  // PKG_POWER_LIMIT's top byte is reserved (write mask 0x00ff...ff).
  msrs.hw_store(msr::kPkgPowerLimit, 0xab00000000001234ULL);
  msrs.write(msr::kPkgPowerLimit, 0xcd00000000005678ULL);
  EXPECT_EQ(msrs.read(msr::kPkgPowerLimit), 0xab00000000005678ULL);
  EXPECT_EQ(msrs.hw_load(msr::kPkgPowerLimit), 0xab00000000005678ULL);
  // A backdoor store does not make a read-only register writable.
  msrs.hw_store(msr::kPkgEnergyStatus, 0x42ULL);
  EXPECT_THROW(msrs.write(msr::kPkgEnergyStatus, 0x0ULL), NotFound);
  EXPECT_EQ(msrs.read(msr::kPkgEnergyStatus), 0x42ULL);
  // Nor an off-list one software-writable.
  msrs.hw_store(0x1a0, 0x7ULL);
  EXPECT_THROW(msrs.write(0x1a0, 0x0ULL), NotFound);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0x7ULL);
}

TEST(MsrFileTest, UnwrittenRegistersReadZeroOnAndOffTheList) {
  MsrFile msrs({{0x100, 0xffULL}, {0x101, 0x0ULL}});
  EXPECT_EQ(msrs.read(0x100), 0u);
  EXPECT_EQ(msrs.read(0x101), 0u);
  EXPECT_EQ(msrs.hw_load(0x102), 0u);
  msrs.hw_store(0x103, 0x9ULL);
  EXPECT_EQ(msrs.hw_load(0x102), 0u);  // a neighbour's store leaves it be
  EXPECT_EQ(msrs.hw_load(0x103), 0x9ULL);
}

TEST(MsrFileTest, CopiesAreIndependentValues) {
  MsrFile original;
  original.write(msr::kPkgPowerLimit, 0x1111ULL);
  original.hw_store(0x1a0, 0xaULL);
  MsrFile copy = original;
  copy.write(msr::kPkgPowerLimit, 0x2222ULL);
  copy.hw_store(0x1a0, 0xbULL);
  copy.hw_store(0x1a1, 0xcULL);
  EXPECT_EQ(original.read(msr::kPkgPowerLimit), 0x1111ULL);
  EXPECT_EQ(original.hw_load(0x1a0), 0xaULL);
  EXPECT_EQ(original.hw_load(0x1a1), 0u);
  EXPECT_EQ(copy.read(msr::kPkgPowerLimit), 0x2222ULL);
  EXPECT_EQ(copy.hw_load(0x1a0), 0xbULL);
  EXPECT_EQ(copy.hw_load(0x1a1), 0xcULL);
}

TEST(MsrFileTest, SlotsNameTheRegisterInTheFileAndItsCopies) {
  MsrFile msrs;
  const std::size_t limit = msrs.hw_slot(msr::kPkgPowerLimit);
  EXPECT_EQ(msrs.hw_slot(msr::kPkgPowerLimit), limit);
  msrs.write(msr::kPkgPowerLimit, 0x1234ULL);
  EXPECT_EQ(msrs.hw_load_slot(limit), 0x1234ULL);
  // An unknown address gets a fresh off-list slot, as hw_store would.
  const std::size_t offlist = msrs.hw_slot(0x1a0);
  EXPECT_NE(offlist, limit);
  EXPECT_EQ(msrs.hw_load_slot(offlist), 0u);
  EXPECT_FALSE(msrs.is_readable(0x1a0));
  msrs.hw_store_slot(offlist, 0x77ULL);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0x77ULL);
  MsrFile copy = msrs;
  copy.hw_store_slot(limit, 0x5678ULL);
  EXPECT_EQ(copy.read(msr::kPkgPowerLimit), 0x5678ULL);
  EXPECT_EQ(msrs.read(msr::kPkgPowerLimit), 0x1234ULL);
  EXPECT_EQ(copy.hw_load_slot(offlist), 0x77ULL);
}

}  // namespace
}  // namespace ps::hw
