#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "difftest/scoreboard.h"
#include "uarch/hierarchy.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
using uarch::Transaction;
using uarch::TxnKind;

Transaction
txn(TxnKind kind, Addr line, const void *cache, const char *name,
    Cycle at = 0)
{
    return {kind, line, cache, name, at};
}

TEST(Scoreboard, LegalSharingPasses)
{
    PermissionScoreboard sb;
    int a, b; // distinct cache identities
    sb.onTransaction(txn(TxnKind::GrantShared, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantShared, 0x100, &b, "L1D.1"));
    EXPECT_TRUE(sb.ok());
}

TEST(Scoreboard, ExclusiveWhilePeerHoldsViolates)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantShared, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &b, "L1D.1"));
    ASSERT_FALSE(sb.ok());
    EXPECT_NE(sb.violations().front().find("exclusive grant"),
              std::string::npos);
}

TEST(Scoreboard, ProbeBeforeExclusiveIsLegal)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantShared, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::ProbeInvalid, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &b, "L1D.1"));
    EXPECT_TRUE(sb.ok());
}

TEST(Scoreboard, SharedGrantAgainstExclusiveViolates)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x200, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantShared, 0x200, &b, "L1D.1"));
    ASSERT_FALSE(sb.ok());
}

TEST(Scoreboard, ProbeSharedDowngrades)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x200, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::ProbeShared, 0x200, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantShared, 0x200, &b, "L1D.1"));
    EXPECT_TRUE(sb.ok());
}

TEST(Scoreboard, ReleaseWithoutPermissionViolates)
{
    PermissionScoreboard sb;
    int a;
    sb.onTransaction(txn(TxnKind::Release, 0x300, &a, "L1D.0"));
    ASSERT_FALSE(sb.ok());
    EXPECT_NE(sb.violations().front().find("release"),
              std::string::npos);
}

TEST(Scoreboard, NonL1TransactionsIgnored)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &a, "L2.0"));
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &b, "L3"));
    EXPECT_TRUE(sb.ok());
    EXPECT_EQ(sb.transactionsChecked(), 0u);
}

TEST(Scoreboard, DifferentLinesIndependent)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x140, &b, "L1D.1"));
    EXPECT_TRUE(sb.ok());
}

TEST(Scoreboard, EvictDropsThePermission)
{
    PermissionScoreboard sb;
    int a, b;
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::Release, 0x100, &a, "L1D.0"));
    sb.onTransaction(txn(TxnKind::Evict, 0x100, &a, "L1D.0"));
    EXPECT_EQ(sb.trackedLines(), 0u);
    sb.onTransaction(txn(TxnKind::GrantExclusive, 0x100, &b, "L1I.0"));
    EXPECT_TRUE(sb.ok());
}

/** A real hierarchy streams four times what its L1s hold: the table
 *  never outgrows the L1s, and the checks still fire afterwards. */
TEST(Scoreboard, TableStaysWithinL1Capacity)
{
    uarch::MemCfg cfg;
    uarch::MemHierarchy mem(cfg, 1);
    PermissionScoreboard sb;
    mem.setTxnLog([&sb](const Transaction &t) { sb.onTransaction(t); });
    const size_t l1Lines =
        (cfg.l1i.sizeBytes + cfg.l1d.sizeBytes) / cfg.l1d.lineBytes;
    const Addr base = 0x80000000;
    const Addr lines = 4 * l1Lines;
    size_t most = 0;
    Addr lastFetched = 0;
    for (Addr i = 0; i < lines; ++i) {
        Addr a = base + i * 64;
        if (i % 3 == 0) {
            mem.store(0, a, a, i);
        } else if (i % 3 == 1) {
            mem.load(0, a, a, i);
        } else {
            mem.fetch(0, a, a, i);
            lastFetched = a;
        }
        most = std::max(most, sb.trackedLines());
    }
    EXPECT_TRUE(sb.ok());
    EXPECT_GT(sb.transactionsChecked(), lines);
    EXPECT_GT(most, l1Lines / 2);
    EXPECT_LE(most, l1Lines);

    // A release from a cache that holds no permission: line 0 left
    // the L1D long ago.
    int peer;
    sb.onTransaction(txn(TxnKind::Release, base, &mem.l1d(0), "L1D.0"));
    ASSERT_EQ(sb.violations().size(), 1u);
    EXPECT_NE(sb.violations()[0].find("release"), std::string::npos);
    // An exclusive grant while a peer holds the line: the last line
    // fetched is still in the L1I.
    ASSERT_TRUE(mem.l1i(0).holds(lastFetched));
    sb.onTransaction(
        txn(TxnKind::GrantExclusive, lastFetched, &peer, "L1D.1"));
    ASSERT_EQ(sb.violations().size(), 2u);
    EXPECT_NE(sb.violations()[1].find("exclusive grant"),
              std::string::npos);
}

/**
 * The scoreboard as it was first written: a line -> (cache name ->
 * permission) nested map. The differential test below holds the packed
 * representation to these semantics, violation text included.
 */
class NestedMapScoreboard
{
  public:
    using Perm = PermissionScoreboard::Perm;

    void
    onTransaction(const Transaction &txn)
    {
        if (std::strncmp(txn.cacheName, "L1I", 3) != 0 &&
            std::strncmp(txn.cacheName, "L1D", 3) != 0)
            return;
        ++checked;
        auto &lineMap = perms[txn.line];
        switch (txn.kind) {
          case TxnKind::GrantExclusive:
            for (const auto &[cache, perm] : lineMap) {
                if (cache != txn.cacheName && perm != Perm::None) {
                    violation("exclusive grant while a peer holds the line",
                              txn);
                    break;
                }
            }
            lineMap[txn.cacheName] = Perm::Exclusive;
            break;
          case TxnKind::GrantShared:
            for (const auto &[cache, perm] : lineMap) {
                if (cache != txn.cacheName && perm == Perm::Exclusive) {
                    violation("shared grant while a peer holds exclusively",
                              txn);
                    break;
                }
            }
            lineMap[txn.cacheName] = Perm::Shared;
            break;
          case TxnKind::ProbeInvalid:
          case TxnKind::Evict:
            lineMap[txn.cacheName] = Perm::None;
            break;
          case TxnKind::ProbeShared:
            if (lineMap[txn.cacheName] == Perm::Exclusive)
                lineMap[txn.cacheName] = Perm::Shared;
            break;
          case TxnKind::Release: {
            auto it = lineMap.find(txn.cacheName);
            if (it == lineMap.end() || it->second == Perm::None)
                violation("release from a cache holding no permission",
                          txn);
            break;
          }
          default:
            break;
        }
    }

    /** Lines some cache holds a permission for. */
    size_t
    heldLines() const
    {
        size_t n = 0;
        for (const auto &[line, lineMap] : perms)
            for (const auto &[cache, perm] : lineMap)
                if (perm != Perm::None) {
                    ++n;
                    break;
                }
        return n;
    }

    std::map<Addr, std::map<std::string, Perm>> perms;
    std::vector<std::string> violations;
    uint64_t checked = 0;

  private:
    void
    violation(const char *what, const Transaction &txn)
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "scoreboard: %s (%s on %s line 0x%llx at cycle %llu)",
                      what, txnKindName(txn.kind), txn.cacheName,
                      static_cast<unsigned long long>(txn.line),
                      static_cast<unsigned long long>(txn.at));
        violations.push_back(buf);
    }
};

TEST(Scoreboard, MatchesNestedMapSemantics)
{
    const TxnKind kinds[] = {
        TxnKind::AcquireShared, TxnKind::AcquireExclusive,
        TxnKind::GrantShared,   TxnKind::GrantExclusive,
        TxnKind::ProbeShared,   TxnKind::ProbeInvalid,
        TxnKind::Release,       TxnKind::MemRead,
        TxnKind::MemWrite,      TxnKind::Evict,
    };
    for (uint64_t seed = 0; seed < 64; ++seed) {
        Rng rng(0x5c0 + seed);
        const unsigned cores = 1 + static_cast<unsigned>(seed % 4);
        // Every cache name twice, at distinct addresses: caches are
        // told apart by name, not by the name's pointer.
        std::vector<std::string> names = {"L3"}, copies;
        for (unsigned c = 0; c < cores; ++c)
            for (const char *level : {"L1I.", "L1D.", "L1plus.", "L2."})
                names.push_back(level + std::to_string(c));
        copies = names;
        std::vector<Addr> lines;
        for (unsigned i = 0; i < 2 + rng.below(12); ++i)
            lines.push_back(0x80000000 + rng.below(64) * 64);

        PermissionScoreboard packed;
        NestedMapScoreboard nested;
        for (Cycle at = 0; at < 3000; ++at) {
            size_t who = rng.below(names.size());
            const std::string &name =
                rng.chance(50) ? names[who] : copies[who];
            // Mostly grants and probes, so lines are contended.
            TxnKind kind = rng.chance(70) ? kinds[2 + rng.below(5)]
                                          : kinds[rng.below(std::size(kinds))];
            Transaction t{kind, lines[rng.below(lines.size())], &name,
                          name.c_str(), at};
            packed.onTransaction(t);
            nested.onTransaction(t);
            ASSERT_EQ(packed.transactionsChecked(), nested.checked)
                << "seed " << seed << " at " << at;
            ASSERT_EQ(packed.violations(), nested.violations)
                << "seed " << seed << " at " << at;
            ASSERT_EQ(packed.trackedLines(), nested.heldLines())
                << "seed " << seed << " at " << at;
        }
        EXPECT_GT(nested.violations.size(), 0u) << "seed " << seed;
    }
}

} // namespace
