/**
 * @file
 * Cache-coherence permission scoreboard (paper Section III-B2b):
 * tracks the permission each L1 data cache holds for every block, fed
 * by the hierarchy's TileLink-flavoured transaction log, and flags
 * grants that violate the single-writer/multiple-reader invariant.
 */

#ifndef MINJIE_DIFFTEST_SCOREBOARD_H
#define MINJIE_DIFFTEST_SCOREBOARD_H

#include <map>
#include <string>
#include <vector>

#include "uarch/cache.h"

namespace minjie::difftest {

class PermissionScoreboard
{
  public:
    enum class Perm : uint8_t { None, Shared, Exclusive };

    /** Feed one observed transaction. */
    void onTransaction(const uarch::Transaction &txn);

    bool ok() const { return violations_.empty(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    uint64_t transactionsChecked() const { return checked_; }

  private:
    /** Permission of cache @p name on @p line as last granted. */
    Perm permOf(Addr line, const char *name) const;

    void violation(const char *what, const uarch::Transaction &txn);

    // line -> (cache name -> permission). Keyed by the per-instance
    // cache name, not the object pointer: iteration feeds violation
    // reports, so the order must not depend on allocation addresses
    // (lint MJ-DET2-001).
    std::map<Addr, std::map<std::string, Perm, std::less<>>> perms_;
    std::vector<std::string> violations_;
    uint64_t checked_ = 0;
};

} // namespace minjie::difftest

#endif // MINJIE_DIFFTEST_SCOREBOARD_H
