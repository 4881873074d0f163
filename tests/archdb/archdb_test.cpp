#include <gtest/gtest.h>

#include "archdb/archdb.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::archdb;
namespace wl = minjie::workload;

TEST(ArchDB, ProbeTablesAutoCreated)
{
    ArchDB db;
    EXPECT_TRUE(db.hasTable("commits"));
    EXPECT_TRUE(db.hasTable("stores"));
    EXPECT_TRUE(db.hasTable("transactions"));
}

TEST(ArchDB, CommitRecordsQueryable)
{
    ArchDB db;
    difftest::CommitProbe p;
    p.pc = 0x80000000;
    p.inst = 0x002081b3; // add gp, ra, sp
    p.rd = 3;
    p.rdWritten = true;
    p.rdValue = 42;
    db.recordCommit(p, 100);
    p.pc = 0x80000004;
    db.recordCommit(p, 101);

    auto &commits = db.table("commits");
    EXPECT_EQ(commits.size(), 2u);
    auto rows = commits.selectEq("pc", Value(uint64_t(0x80000000)));
    ASSERT_EQ(rows.size(), 1u);
    int disasmCol = commits.columnIndex("disasm");
    ASSERT_GE(disasmCol, 0);
    EXPECT_NE(rows[0][disasmCol].str.find("add"), std::string::npos);
}

TEST(ArchDB, TransactionHistogram)
{
    ArchDB db;
    int c1;
    db.recordTransaction({uarch::TxnKind::AcquireShared, 0x100, &c1,
                          "L1D.0", 1});
    db.recordTransaction({uarch::TxnKind::AcquireShared, 0x140, &c1,
                          "L1D.0", 2});
    db.recordTransaction({uarch::TxnKind::ProbeInvalid, 0x100, &c1,
                          "L1D.1", 3});
    auto h = db.table("transactions").histogram("kind");
    EXPECT_EQ(h["AcquireShared"], 2u);
    EXPECT_EQ(h["ProbeInvalid"], 1u);
}

TEST(ArchDB, UserTables)
{
    ArchDB db;
    auto &t = db.table("bpu_events", {"cycle", "pc", "taken"});
    t.insert({Value(uint64_t(1)), Value(uint64_t(0x80000000)), Value(1)});
    EXPECT_EQ(db.table("bpu_events").size(), 1u);
    EXPECT_EQ(t.columnIndex("taken"), 2);
    EXPECT_EQ(t.columnIndex("nope"), -1);
}

TEST(ArchDB, SelectWhere)
{
    ArchDB db;
    difftest::StoreProbe s;
    for (uint64_t i = 0; i < 10; ++i) {
        s.paddr = 0x80000000 + i * 64;
        s.data = i;
        s.size = 8;
        db.recordStore(s, i);
    }
    auto &stores = db.table("stores");
    int dataCol = stores.columnIndex("data");
    auto big = stores.selectWhere([&](const Row &r) {
        return r[dataCol].num >= 7;
    });
    EXPECT_EQ(big.size(), 3u);
}

TEST(ArchDB, EndToEndWithSimulation)
{
    // Wire ArchDB into a full XIANGSHAN run: commits, stores and cache
    // transactions all land in tables (the Section IV-C debugging flow).
    ArchDB db;
    xs::Soc soc(xs::CoreConfig::nh());
    soc.core(0).setCommitBatchHook(
        [&](const difftest::CommitProbe *p, unsigned n) {
            for (unsigned i = 0; i < n; ++i)
                db.recordCommit(p[i], soc.core(0).now());
        });
    soc.core(0).setStoreHook([&](const difftest::StoreProbe &p) {
        db.recordStore(p, soc.core(0).now());
    });
    soc.mem().setTxnLog([&](const uarch::Transaction &t) {
        db.recordTransaction(t);
    });

    auto prog = wl::coremarkProxy(3);
    soc.loadProgram(prog);
    auto r = soc.run(5'000'000);
    ASSERT_TRUE(r.completed);

    EXPECT_GT(db.table("commits").size(), 1000u);
    EXPECT_GT(db.table("transactions").size(), 10u);
    auto report = db.report();
    EXPECT_NE(report.find("commits"), std::string::npos);

    // The debugging query pattern: find all transactions on one line.
    auto &txns = db.table("transactions");
    ASSERT_GT(txns.size(), 0u);
    int lineCol = txns.columnIndex("line");
    uint64_t someLine = txns.rows()[0][lineCol].num;
    auto hits = txns.selectEq("line", Value(someLine));
    EXPECT_GE(hits.size(), 1u);
}

} // namespace
