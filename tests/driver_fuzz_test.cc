// Hostile-input fuzzing of the driver's fault surface (ISSUE 3): the sysfs
// status parser and the fault-record mailbox parser both consume bytes an
// adversarial co-tenant could influence, so they must reject anything
// malformed without crashing — and the manager's observer must degrade
// gracefully (conservative skip + counter) when a status line is garbage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "driver/sysfs.h"
#include "tests/testutil.h"
#include "vpim/manager.h"

namespace vpim::driver {
namespace {

TEST(SysfsParseFuzz, FormatParseRoundtrip) {
  Sysfs sysfs(4);
  sysfs.set_in_use(1, "vm-alpha");
  sysfs.set_failed(2);
  sysfs.count_fault(2);
  sysfs.count_fault(2);
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto parsed = Sysfs::parse(sysfs.format(r));
    ASSERT_TRUE(parsed.has_value()) << sysfs.format(r);
    const RankSysfsEntry direct = sysfs.read(r);
    EXPECT_EQ(parsed->in_use, direct.in_use) << "rank " << r;
    EXPECT_EQ(parsed->owner, direct.owner) << "rank " << r;
    EXPECT_EQ(parsed->health, direct.health) << "rank " << r;
    EXPECT_EQ(parsed->fault_count, direct.fault_count) << "rank " << r;
  }
}

TEST(SysfsParseFuzz, RejectsMalformedLines) {
  const char* hostile[] = {
      "",
      " ",
      "in_use=1",
      "owner=vm health=ok faults=0 in_use=1",       // wrong field order
      "in_use=2 owner=vm health=ok faults=0",       // bad bool
      "in_use=1 owner=vm health=banana faults=0",   // unknown health
      "in_use=1 owner=vm health=ok faults=",        // empty number
      "in_use=1 owner=vm health=ok faults=abc",     // non-numeric
      "in_use=1 owner=vm health=ok faults=99999999999",  // overflow
      "in_use=1 owner=vm health=ok faults=0 ",      // trailing byte
      "in_use=1  owner=vm health=ok faults=0",      // doubled space
      "in_use=1 owner=vm a health=ok faults=0",     // space inside owner
      "in_use=1 owner=vm health=ok",                // missing field
      "in_use=1 owner=vm health=ok faults=0 extra=1",
      "in_use=-1 owner=vm health=ok faults=0",
      "IN_USE=1 owner=vm health=ok faults=0",
      "in_use=1 owner= health=ok faults=0",         // empty owner token
      "\x01\x02\x03",
  };
  for (const char* line : hostile) {
    EXPECT_FALSE(Sysfs::parse(line).has_value())
        << "accepted: \"" << line << "\"";
  }
}

TEST(SysfsParseFuzz, RandomBytesNeverCrashAndAlmostNeverParse) {
  Rng rng(0xF022);
  for (int round = 0; round < 2000; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 80));
    std::string line(len, '\0');
    for (auto& c : line) {
      c = static_cast<char>(rng.uniform(1, 255));
    }
    // Must not crash; random bytes matching the strict grammar is
    // practically impossible, but the contract here is only "no crash,
    // well-defined result".
    (void)Sysfs::parse(line);
  }
  // Mutated valid lines: flip one byte of a well-formed line at a time.
  const std::string good = "in_use=1 owner=vm-a health=ok faults=3";
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string mutated = good;
    mutated[i] = static_cast<char>(rng.uniform(1, 255));
    (void)Sysfs::parse(mutated);  // no crash
  }
}

TEST(SysfsParseFuzz, HostileOwnerDegradesObserverGracefully) {
  // A process name containing a space makes the rank's status line
  // unparseable. The observer must skip the rank (keeping its last known
  // state) and count the parse error instead of crashing or misreading.
  test::TestRig rig(test::small_machine());
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  core::Manager mgr(rig.drv, cfg);
  auto mapping = mgr.request_rank("evil name with spaces");
  ASSERT_TRUE(mapping.has_value());
  const std::uint32_t r = mapping->rank_index();
  ASSERT_FALSE(Sysfs::parse(rig.drv.rank_status_line(r)).has_value());

  mgr.observe();
  EXPECT_EQ(mgr.stats().status_parse_errors, 1u);
  EXPECT_EQ(mgr.state(r), core::RankState::kAllo);  // state preserved

  // Once the hostile mapping goes away the rank is observable again and
  // recycles normally.
  mapping.reset();
  mgr.observe();
  EXPECT_EQ(mgr.state(r), core::RankState::kNaav);
}

// ---- fault-record mailbox ------------------------------------------------

TEST(FaultMailboxFuzz, TruncatedRecordsAreRejected) {
  const FaultRecord rec{FaultKind::kMramEcc, 1, 5, 99};
  const auto full = serialize_fault_record(rec);
  for (std::size_t n = 0; n < kFaultRecordBytes; ++n) {
    EXPECT_FALSE(
        parse_fault_record(std::span(full).first(n), 8).has_value())
        << "accepted truncated record of " << n << " bytes";
  }
  // One byte too long is just as dead.
  auto longer = full;
  longer.push_back(0);
  EXPECT_FALSE(parse_fault_record(longer, 8).has_value());
}

TEST(FaultMailboxFuzz, RandomRecordsNeverCrash) {
  Rng rng(0xFA17);
  for (int round = 0; round < 2000; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 48));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    if (auto rec = parse_fault_record(bytes, 8)) {
      // If something parses it must at least be internally consistent.
      EXPECT_LT(rec->rank, 8u);
      EXPECT_LT(rec->dpu, 64u);
    }
  }
}

TEST(FaultMailboxFuzz, DrainKeepsValidRecordsAndDropsGarbage) {
  test::TestRig rig(test::small_machine());
  const FaultRecord good{FaultKind::kTransientDpu, 1, 3, 777};

  // Interleave valid records with hostile mailbox writes.
  rig.drv.log_fault(good);
  const std::vector<std::uint8_t> empty;
  rig.drv.log_raw_fault_bytes(empty);
  std::vector<std::uint8_t> truncated(kFaultRecordBytes - 1, 0xAA);
  rig.drv.log_raw_fault_bytes(truncated);
  auto bad_magic = serialize_fault_record(good);
  bad_magic[1] ^= 0x40;
  rig.drv.log_raw_fault_bytes(bad_magic);
  auto bad_kind = serialize_fault_record(good);
  bad_kind[4] = 0xEE;
  rig.drv.log_raw_fault_bytes(bad_kind);
  auto bad_rank = serialize_fault_record(
      FaultRecord{FaultKind::kMramEcc, 200, 0, 1});
  rig.drv.log_raw_fault_bytes(bad_rank);
  rig.drv.log_fault({FaultKind::kRankSeizure, 0, 0, 888});

  const auto records = rig.drv.drain_fault_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, FaultKind::kTransientDpu);
  EXPECT_EQ(records[0].rank, 1u);
  EXPECT_EQ(records[0].at_time, 777u);
  EXPECT_EQ(records[1].kind, FaultKind::kRankSeizure);

  // The mailbox drained fully: a second drain is empty.
  EXPECT_TRUE(rig.drv.drain_fault_records().empty());
}

}  // namespace
}  // namespace vpim::driver
