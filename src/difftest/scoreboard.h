/**
 * @file
 * Cache-coherence permission scoreboard (paper Section III-B2b):
 * tracks the permission each L1 cache holds for every block, fed by the
 * hierarchy's TileLink-flavoured transaction log, and flags grants that
 * violate the single-writer/multiple-reader invariant.
 *
 * Each line's permissions are one packed word: 2 bits of Perm per L1
 * cache, indexed by a small id the name registry hands out on a cache's
 * first transaction. Non-L1 names map to "ignore" once, so the per-
 * transaction cost is a pointer scan plus one hash lookup. A ProbeInvalid
 * or Evict that leaves a word at 0 erases its line, so the table holds
 * no more lines than the L1s do.
 */

#ifndef MINJIE_DIFFTEST_SCOREBOARD_H
#define MINJIE_DIFFTEST_SCOREBOARD_H

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "uarch/cache.h"

namespace minjie::difftest {

class PermissionScoreboard
{
  public:
    enum class Perm : uint8_t { None, Shared, Exclusive };

    /** L1 caches one packed word tracks (2 bits each). */
    static constexpr unsigned MAX_L1 = 32;

    /**
     * Feed one observed transaction. Caches are told apart by name,
     * resolved once per distinct name pointer: @p txn.cacheName must
     * keep its contents for the scoreboard's lifetime (a Cache's name
     * does).
     */
    void onTransaction(const uarch::Transaction &txn);

    bool ok() const { return violations_.empty(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    uint64_t transactionsChecked() const { return checked_; }
    /** Lines some L1 holds a permission for (table entries). */
    size_t trackedLines() const { return perms_.size(); }

  private:
    static constexpr int IGNORE = -1;

    /** Registry id of @p name, or IGNORE for a non-L1 cache. */
    int idOf(const char *name);

    void violation(const char *what, const uarch::Transaction &txn);

    /** Name pointer -> id (IGNORE included), scanned by pointer. */
    std::vector<std::pair<const char *, int>> alias_;
    /** id -> L1 cache name, for pointers not seen before. */
    std::vector<std::string> names_;
    /** line -> packed permissions. Looked up only, never iterated, so
     *  no report depends on the hash order (lint MJ-DET2-001). */
    std::unordered_map<Addr, uint64_t> perms_;
    std::vector<std::string> violations_;
    uint64_t checked_ = 0;
};

} // namespace minjie::difftest

#endif // MINJIE_DIFFTEST_SCOREBOARD_H
