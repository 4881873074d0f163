#include "difftest/scoreboard.h"

#include <cstdio>
#include <cstring>

#include "common/log.h"

namespace minjie::difftest {

using uarch::Transaction;
using uarch::TxnKind;

namespace {

/** The Exclusive bit of every 2-bit slot (Perm::Exclusive == 0b10). */
constexpr uint64_t EXCL_BITS = 0xaaaaaaaaaaaaaaaaULL;

/** The single-writer invariant is enforced among the L1 caches; inner
 *  levels legitimately hold lines concurrently with their children. */
bool
isL1(const char *name)
{
    return std::strncmp(name, "L1I", 3) == 0 ||
           std::strncmp(name, "L1D", 3) == 0;
}

} // namespace

int
PermissionScoreboard::idOf(const char *name)
{
    for (const auto &[ptr, id] : alias_)
        if (ptr == name)
            return id;
    int id = IGNORE;
    if (isL1(name)) {
        for (size_t i = 0; i < names_.size() && id == IGNORE; ++i)
            if (names_[i] == name)
                id = static_cast<int>(i);
        if (id == IGNORE) {
            if (names_.size() == MAX_L1)
                fatal("scoreboard: more than %u L1 caches", MAX_L1);
            id = static_cast<int>(names_.size());
            names_.emplace_back(name);
        }
    }
    alias_.emplace_back(name, id);
    return id;
}

void
PermissionScoreboard::violation(const char *what, const Transaction &txn)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "scoreboard: %s (%s on %s line 0x%llx at cycle %llu)",
                  what, txnKindName(txn.kind), txn.cacheName,
                  static_cast<unsigned long long>(txn.line),
                  static_cast<unsigned long long>(txn.at));
    violations_.push_back(buf);
}

void
PermissionScoreboard::onTransaction(const Transaction &txn)
{
    int id = idOf(txn.cacheName);
    if (id == IGNORE)
        return;
    ++checked_;
    const unsigned shift = 2 * static_cast<unsigned>(id);
    const uint64_t mine = 3ULL << shift;
    auto set = [&](uint64_t &word, Perm p) {
        word = (word & ~mine) | (static_cast<uint64_t>(p) << shift);
    };

    switch (txn.kind) {
      case TxnKind::GrantExclusive: {
        uint64_t &word = perms_[txn.line];
        if (word & ~mine)
            violation("exclusive grant while a peer holds the line", txn);
        set(word, Perm::Exclusive);
        break;
      }

      case TxnKind::GrantShared: {
        uint64_t &word = perms_[txn.line];
        if (word & ~mine & EXCL_BITS)
            violation("shared grant while a peer holds exclusively", txn);
        set(word, Perm::Shared);
        break;
      }

      case TxnKind::ProbeInvalid:
      case TxnKind::Evict:
        // A line no L1 holds has no entry, so the table stays as small
        // as what the L1s hold.
        if (auto it = perms_.find(txn.line); it != perms_.end()) {
            set(it->second, Perm::None);
            if (it->second == 0)
                perms_.erase(it);
        }
        break;

      case TxnKind::ProbeShared:
        if (auto it = perms_.find(txn.line);
            it != perms_.end() && (it->second & mine & EXCL_BITS))
            set(it->second, Perm::Shared);
        break;

      case TxnKind::Release: {
        // A release without a prior permission is a protocol bug; a
        // missing entry means no L1 holds the line.
        auto it = perms_.find(txn.line);
        if (it == perms_.end() || (it->second & mine) == 0)
            violation("release from a cache holding no permission", txn);
        break;
      }

      default:
        break;
    }
}

} // namespace minjie::difftest
